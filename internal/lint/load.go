package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader type-checks packages from source with no network and no toolchain
// beyond GOROOT: standard-library imports resolve under GOROOT/src (and
// GOROOT/src/vendor), module-local imports under the module root, and
// explicit Overrides (linttest fixture packages) win over both. Dependencies
// are checked API-only (IgnoreFuncBodies); target packages get full bodies
// plus their _test.go files. Cgo is disabled so the pure-Go fallbacks of
// net, os/user, etc. are selected — everything type-checks offline.
type Loader struct {
	Root       string            // module root (directory containing go.mod)
	ModulePath string            // module path from go.mod, e.g. "tango"
	Overrides  map[string]string // import path → directory

	ctxt build.Context
	fset *token.FileSet
	deps map[string]*types.Package
}

// NewLoader builds a Loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod at or above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", root)
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Root:       root,
		ModulePath: mod,
		Overrides:  map[string]string{},
		ctxt:       ctxt,
		fset:       token.NewFileSet(),
		deps:       map[string]*types.Package{},
	}, nil
}

// Dir resolves an import path to a source directory.
func (l *Loader) Dir(path string) (string, error) {
	if d, ok := l.Overrides[path]; ok {
		return d, nil
	}
	if path == l.ModulePath {
		return l.Root, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), nil
	}
	goroot := l.ctxt.GOROOT
	for _, d := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q", path)
}

// Import implements types.Importer: API-only typechecking for dependencies.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	dir, err := l.Dir(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	files, err := l.parse(dir, bp.GoFiles, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {}, // deps: tolerate body-independent noise
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil && pkg == nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg.MarkComplete()
	l.deps[path] = pkg
	return pkg, nil
}

func (l *Loader) parse(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Load fully type-checks the package at the import path, including its
// in-package _test.go files, and — when the directory has external
// (package foo_test) test files — a second Package for those, importing the
// test-augmented base. Loaded targets are memoized as importable deps, so a
// multi-package analysis run type-checks each package once.
func (l *Loader) Load(path string) ([]*Package, error) {
	dir, err := l.Dir(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []*Package
	names := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
	if len(names) > 0 {
		files, err := l.parse(dir, names, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.deps[path] = pkg // importers (incl. xtest below) see the full package
		out = append(out, &Package{PkgPath: path, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info})
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := l.parse(dir, bp.XTestGoFiles, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path+"_test", files)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{PkgPath: path + "_test", Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	return out, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	var errs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { errs = append(errs, err) },
	}
	info := newInfo()
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("typecheck %s: %v", path, errs[0])
	}
	return pkg, info, nil
}

// ModulePackages returns the import paths of every package under the module
// root matching the "./..."-style dir patterns, in dependency order
// (imports first), skipping testdata, hidden directories and nested modules
// (subdirectories holding their own go.mod), as go list does.
func (l *Loader) ModulePackages(patterns ...string) ([]string, error) {
	dirs := map[string]bool{}
	addTree := func(base string) error {
		return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || (p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_"))) {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(p)
			if err != nil {
				return err
			}
			hasGo := false
			for _, e := range ents {
				if e.IsDir() {
					continue
				}
				if e.Name() == "go.mod" && p != l.Root {
					return filepath.SkipDir // a nested module, as go list skips it
				}
				hasGo = hasGo || strings.HasSuffix(e.Name(), ".go")
			}
			if hasGo {
				dirs[p] = true
			}
			return nil
		})
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		base := l.Root
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base = filepath.Join(l.Root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if err := addTree(base); err != nil {
				return nil, err
			}
			continue
		}
		if pat != "" && pat != "." {
			base = filepath.Join(l.Root, filepath.FromSlash(pat))
		}
		dirs[base] = true
	}
	var paths []string
	for d := range dirs {
		rel, err := filepath.Rel(l.Root, d)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
	}
	sort.Strings(paths)
	return l.sortByImports(paths)
}

// sortByImports topologically sorts module package paths so every package
// follows its in-module imports (test-file imports included: analysis facts
// must be ready before an importer is analyzed).
func (l *Loader) sortByImports(paths []string) ([]string, error) {
	in := map[string]bool{}
	for _, p := range paths {
		in[p] = true
	}
	imports := map[string][]string{}
	// reaches reports whether from can reach to over the current edges.
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			for _, m := range imports[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	// Regular imports are hard edges (always acyclic in valid Go). Test-file
	// imports are soft: a package's _test.go may import something that
	// imports the package back, which Go resolves by compiling the package
	// twice but this single-node-per-package graph cannot — such edges are
	// simply dropped, at the cost of dep facts for that test code.
	type softEdge struct{ from, to string }
	var soft []softEdge
	for _, p := range paths {
		dir, err := l.Dir(p)
		if err != nil {
			return nil, err
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		seen := map[string]bool{}
		for _, imp := range bp.Imports {
			if in[imp] && imp != p && !seen[imp] {
				seen[imp] = true
				imports[p] = append(imports[p], imp)
			}
		}
		for _, set := range [][]string{bp.TestImports, bp.XTestImports} {
			for _, imp := range set {
				if in[imp] && imp != p && !seen[imp] {
					seen[imp] = true
					soft = append(soft, softEdge{p, imp})
				}
			}
		}
	}
	for _, e := range soft {
		if !reaches(e.to, e.from) {
			imports[e.from] = append(imports[e.from], e.to)
		}
	}
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		deps := append([]string{}, imports[p]...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
