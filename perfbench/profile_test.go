package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf is a tiny protobuf encoder for building synthetic profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) uint(num int, v uint64) {
	p.varint(uint64(num)<<3 | wireVarint)
	p.varint(v)
}

func (p *pbuf) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(num int, vs ...uint64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(num, inner.b)
}

// synthProfile encodes a profile whose samples are given as stacks of
// function names (innermost first) with weights. Each stack's first two
// frames share one location, as an inlined call does.
func synthProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	strs := []string{""}
	strID := map[string]uint64{}
	fnID := map[string]uint64{}
	var prof pbuf
	for _, stack := range stacks {
		for _, fn := range stack {
			if fnID[fn] != 0 {
				continue
			}
			strs = append(strs, fn)
			strID[fn] = uint64(len(strs) - 1)
			fnID[fn] = uint64(len(fnID) + 1)
			var f pbuf
			f.uint(fieldFunctionID, fnID[fn])
			f.uint(fieldFunctionName, strID[fn])
			prof.bytes(fieldProfileFunction, f.b)
		}
	}
	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); {
			n := 1
			if j == 0 && len(stack) > 1 {
				n = 2 // inlined pair in one location
			}
			locID++
			var loc pbuf
			loc.uint(fieldLocationID, locID)
			for _, fn := range stack[j : j+n] {
				var line pbuf
				line.uint(fieldLineFunction, fnID[fn])
				loc.bytes(fieldLocationLine, line.b)
			}
			prof.bytes(fieldProfileLocation, loc.b)
			locs = append(locs, locID)
			j += n
		}
		var s pbuf
		s.packed(fieldSampleLocation, locs...)
		s.packed(fieldSampleValue, 1, uint64(weights[i]))
		prof.bytes(fieldProfileSample, s.b)
	}
	for _, s := range strs {
		prof.bytes(fieldProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tango/internal/pan/stripe.(*Pipeline).run":       "stripe",
		"tango/internal/pan.(*Dialer).Dial.func1":         "pan",
		"tango/internal/netsim.(*SimClock).advanceTo":     "netsim",
		"tango/internal/lint/testdata/src/x.F":            "lint",
		"tango/internal/pathdb.Combine[go.shape.int]":     "pathdb",
		"tango/internal/squic.(*Conn).handlePacket.func2": "squic",
		"runtime.mallocgc":                                "",
		"net/http.(*conn).serve":                          "",
		"tango/perfbench.main":                            "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// The advancer spinning: netsim, and advancer spin.
		{"runtime.mcall", "runtime.Gosched", advancerFrame, "runtime.goexit"},
		// A delivery fired by the advancer: innermost module wins.
		{"runtime.memmove", "tango/internal/dataplane.(*Router).forward", advanceToFrame,
			"tango/internal/netsim.(*SimClock).AdvanceToNext", advancerFrame},
		// No repository frame at all.
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		// The stripe scheduler is its own module, not pan.
		{"tango/internal/pan/stripe.(*Pipeline).run", "tango/internal/pan.(*Striped).Fetch"},
		// An unlisted module.
		{"tango/internal/snet.(*Stack).deliver", "tango/internal/dataplane.(*Router).deliverLocal"},
	}
	weights := []int64{2, 3, 1, 2, 2}
	samples, err := parseProfile(synthProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.funcs) != len(stacks[i]) || s.funcs[0] != stacks[i][0] || s.weight != weights[i] {
			t.Errorf("sample %d = %+v, want %v weight %d", i, s, stacks[i], weights[i])
		}
	}
	a := attribute(samples)
	want := map[string]float64{"netsim": 0.2, "dataplane": 0.3, "runtime": 0.1, "stripe": 0.2, "snet": 0.2}
	sum := 0.0
	for mod, share := range a.shares {
		sum += share
		if math.Abs(share-want[mod]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", mod, share, want[mod])
		}
	}
	if len(a.shares) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v, want %v summing to 1", a.shares, sum, want)
	}
	if math.Abs(a.advancer-0.2) > 1e-12 {
		t.Errorf("advancer share = %v, want 0.2 (spin only, not the timers it fires)", a.advancer)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{fieldProfileSample<<3 | wireBytes, 10, 1}) // length past the end
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parsed a truncated profile")
	}
}

// The decoder reads what runtime/pprof writes, and the shares sum to 1.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for start := wallNow(); wallSince(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x ^= i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples taken")
	}
	a := attribute(samples)
	sum := 0.0
	for _, s := range a.shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 || a.shares[runtimeModule] == 0 {
		t.Errorf("shares %v sum to %v", a.shares, sum)
	}
}

var sink int
