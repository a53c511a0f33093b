package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.9, 90},
		{101, 0.5, 51},
		{1000, 0.9, 900},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || !ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, true", tc.n, tc.p, got, ok, tc.want)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},  // rank 10, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{5, 0.5, false},
	} {
		if _, ok := percentile(seq(tc.n), tc.p); ok != tc.want {
			t.Errorf("percentile(%d samples, %v) ok = %v, want %v", tc.n, tc.p, ok, tc.want)
		}
	}
	if v, ok := percentile(nil, 0.5); ok || !math.IsNaN(v) {
		t.Errorf("percentile(nil) = %v, %v; want NaN, false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestStallClassification(t *testing.T) {
	for _, tc := range []struct {
		virt time.Duration
		want bool
	}{
		{601600 * time.Microsecond, false},
		{800 * time.Millisecond, false},
		{stallLimit, false},
		{stallLimit + time.Nanosecond, true},
		{10 * time.Second, true},
		{10872 * time.Millisecond, true},
	} {
		if got := stalled(tc.virt, stallLimit); got != tc.want {
			t.Errorf("stalled(%v) = %v, want %v", tc.virt, got, tc.want)
		}
	}
	within, stalls := splitStalls([]float64{601.6, 10007, 783.6, 5000, 5000.5, 11356.6}, stallLimit)
	if stalls != 3 || len(within) != 3 || within[2] != 5000 {
		t.Errorf("splitStalls = %v, %d; want [601.6 783.6 5000], 3", within, stalls)
	}
}

const procStat = `cpu  1000 10 300 8000 50 5 15 620 40 0
cpu0 500 5 150 4000 25 2 7 310 20 0
cpu1 500 5 150 4000 25 3 8 310 20 0
intr 123456
ctxt 789
`

func TestParseProcStat(t *testing.T) {
	ct, err := parseProcStat(strings.NewReader(procStat))
	if err != nil {
		t.Fatal(err)
	}
	// guest (40) is already inside user and is not added again.
	if ct.total != 1000+10+300+8000+50+5+15+620 || ct.steal != 620 {
		t.Errorf("parsed %+v, want total 10000 steal 620", ct)
	}
	for _, bad := range []string{
		"intr 1\n",
		"cpu  1 2 3\n",
		"cpu  1 2 3 4 5 6 7 x 9\n",
	} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestStealShare(t *testing.T) {
	before := cpuTimes{total: 10000, steal: 620}
	after := cpuTimes{total: 12000, steal: 1160}
	if got := stealShare(before, after); math.Abs(got-0.27) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.27", got)
	}
	if got := stealShare(after, after); got != 0 {
		t.Errorf("stealShare with no ticks = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []*span{
		{id: 1, name: "op", wall0: at(0), wall1: at(100)},
		{id: 2, parent: 1, name: "page", wall0: at(10), wall1: at(90)},
		// Concurrent requests: [20,50] and [40,70] cover 50 ms of the page.
		{id: 3, parent: 2, name: "proxy.request", wall0: at(20), wall1: at(50)},
		{id: 4, parent: 2, name: "proxy.request", wall0: at(40), wall1: at(70)},
	}
	got := map[string]*spanStat{}
	for _, st := range aggregate(spans) {
		got[st.path] = st
	}
	for path, want := range map[string]float64{
		"op":                    20,
		"op/page":               30,
		"op/page/proxy.request": 60,
	} {
		st := got[path]
		if st == nil {
			t.Fatalf("no aggregate for %s", path)
		}
		if math.Abs(st.selfMS-want) > 1e-9 {
			t.Errorf("%s self = %v ms, want %v", path, st.selfMS, want)
		}
	}
	if got["op/page/proxy.request"].count != 2 || got["op/page/proxy.request"].depth != 2 {
		t.Errorf("proxy.request aggregate = %+v", got["op/page/proxy.request"])
	}
}
