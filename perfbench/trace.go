package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"tango/internal/netsim"
)

// span is one timed call into a layer, on the wall clock and on the world's
// virtual clock.
type span struct {
	id, parent   int // parent 0 = root
	name         string
	wall0, wall1 time.Time
	virt0, virt1 time.Time
}

func (s *span) wall() time.Duration { return s.wall1.Sub(s.wall0) }
func (s *span) virt() time.Duration { return s.virt1.Sub(s.virt0) }

// tracer keeps the spans of a traced run in memory. One op is in flight at
// a time; spans started from inside the program's goroutines (the proxy
// tap) attach to the op's current span.
type tracer struct {
	clock  *netsim.SimClock
	opName string // name of each op's root span

	mu    sync.Mutex
	spans []*span
	cur   *span
}

func newTracer(clock *netsim.SimClock, opName string) *tracer {
	return &tracer{clock: clock, opName: opName}
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(name string, parent *span) *span {
	s := &span{name: name, wall0: wallNow(), virt0: t.clock.Now()}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// enter opens a span under parent and makes it the one startChild attaches
// to until the next enter.
func (t *tracer) enter(name string, parent *span) *span {
	s := t.start(name, parent)
	t.mu.Lock()
	t.cur = s
	t.mu.Unlock()
	return s
}

// startChild opens a span under the current one.
func (t *tracer) startChild(name string) *span {
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	return t.start(name, cur)
}

func (t *tracer) end(s *span) {
	s.virt1 = t.clock.Now()
	s.wall1 = wallNow()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// spanStat aggregates the spans at one position of the tree.
type spanStat struct {
	path    string // names from the root, joined by "/"
	depth   int
	count   int
	walls   []float64 // ms
	virts   []float64 // ms
	totalMS float64
	selfMS  float64
}

// aggregate folds spans by their path from the root. A span's self time is
// its wall duration minus the part of it covered by its children, which
// may overlap one another (a page's subresources are fetched concurrently).
func aggregate(spans []*span) []*spanStat {
	byID := make(map[int]*span, len(spans))
	children := make(map[int][]*span)
	for _, s := range spans {
		byID[s.id] = s
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	pathOf := func(s *span) (string, int) {
		names := []string{s.name}
		for p := byID[s.parent]; p != nil; p = byID[p.parent] {
			names = append(names, p.name)
		}
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
		return strings.Join(names, "/"), len(names) - 1
	}
	stats := map[string]*spanStat{}
	for _, s := range spans {
		if s.wall1.IsZero() {
			continue
		}
		path, depth := pathOf(s)
		st := stats[path]
		if st == nil {
			st = &spanStat{path: path, depth: depth}
			stats[path] = st
		}
		wall := ms(s.wall())
		st.count++
		st.walls = append(st.walls, wall)
		st.virts = append(st.virts, ms(s.virt()))
		st.totalMS += wall
		st.selfMS += wall - ms(covered(s, children[s.id]))
	}
	out := make([]*spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// covered is how much of parent's wall interval the union of the children's
// intervals covers.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		if k.wall1.IsZero() {
			continue
		}
		a, b := k.wall0, k.wall1
		if a.Before(parent.wall0) {
			a = parent.wall0
		}
		if b.After(parent.wall1) {
			b = parent.wall1
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				total += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		total += v.b.Sub(v.a)
		end = v.b
	}
	return total
}

// printTree writes the aggregated span tree.
func printTree(w io.Writer, stats []*spanStat, ops int) {
	fmt.Fprintf(w, "span tree over %d ops (wall ms; self = total minus time covered by child spans):\n", ops)
	fmt.Fprintf(w, "  %-34s %7s %8s %9s %9s %11s %9s\n", "span", "n", "n/op", "p50", "total", "self", "virt p50")
	for _, st := range stats {
		name := strings.Repeat("  ", st.depth) + st.path[strings.LastIndexByte(st.path, '/')+1:]
		p50, _ := percentile(append([]float64(nil), st.walls...), 0.5)
		v50, _ := percentile(append([]float64(nil), st.virts...), 0.5)
		fmt.Fprintf(w, "  %-34s %7d %8.2f %9.3f %9.1f %11.1f %9.1f\n",
			name, st.count, float64(st.count)/float64(ops), p50, st.totalMS, st.selfMS, v50)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
