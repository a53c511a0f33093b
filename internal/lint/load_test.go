package lint_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tango/internal/lint"
)

// TestModulePackagesSkipsNestedModules: a subdirectory with its own go.mod
// is another module (perfbench is one), so "./..." must not list its
// packages as the enclosing module's, exactly as go list skips them.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":                  "module example.com/outer\n\ngo 1.24\n",
		"outer.go":                "package outer\n",
		"inner/inner.go":          "package inner\n",
		"nested/go.mod":           "module example.com/nested\n\ngo 1.24\n",
		"nested/nested.go":        "package nested\n",
		"nested/deep/deep.go":     "package deep\n",
		"testdata/fixture/fix.go": "package fixture\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loader.ModulePackages("./...")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if want := []string{"example.com/outer", "example.com/outer/inner"}; !slices.Equal(got, want) {
		t.Fatalf("ModulePackages(./...) = %v, want %v", got, want)
	}
}
