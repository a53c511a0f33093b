package segment

import (
	"testing"
	"time"

	"tango/internal/addr"
)

func samplePath() *Path {
	return &Path{
		Src: ia111,
		Dst: ia112,
		Hops: []Hop{
			{IA: ia111, Ingress: 0, Egress: 2},
			{IA: ia110, Ingress: 1, Egress: 4},
			{IA: ia112, Ingress: 3, Egress: 0},
		},
		Meta: Metadata{
			Latency:     7 * time.Millisecond,
			Bandwidth:   1e9,
			MTU:         1400,
			ASes:        []addr.IA{ia111, ia110, ia112},
			Countries:   []string{"CH"},
			CarbonPerGB: 270,
		},
	}
}

func TestPathReversed(t *testing.T) {
	p := samplePath()
	r := p.Reversed()
	if r.Src != p.Dst || r.Dst != p.Src {
		t.Fatal("endpoints not swapped")
	}
	if len(r.Hops) != len(p.Hops) {
		t.Fatal("hop count changed")
	}
	first := r.Hops[0]
	if first.IA != ia112 || first.Ingress != 0 || first.Egress != 3 {
		t.Fatalf("first reversed hop %+v", first)
	}
	last := r.Hops[2]
	if last.IA != ia111 || last.Ingress != 2 || last.Egress != 0 {
		t.Fatalf("last reversed hop %+v", last)
	}
	if r.Meta.ASes[0] != ia112 || r.Meta.ASes[2] != ia111 {
		t.Fatalf("metadata AS order %v", r.Meta.ASes)
	}
	// Double reversal is the identity on hops.
	rr := r.Reversed()
	for i := range p.Hops {
		if rr.Hops[i] != p.Hops[i] {
			t.Fatalf("double reversal changed hop %d", i)
		}
	}
}

func TestPathReversedDoesNotMutate(t *testing.T) {
	p := samplePath()
	orig := p.Hops[0]
	_ = p.Reversed()
	if p.Hops[0] != orig {
		t.Fatal("Reversed mutated the original")
	}
}

func TestPathFingerprint(t *testing.T) {
	p := samplePath()
	q := samplePath()
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("same path, different fingerprints")
	}
	// Paths are immutable once built (Fingerprint memoizes on first use),
	// so the divergent path is modified BEFORE its first fingerprint.
	r := samplePath()
	r.Hops[1].Egress = 9
	if p.Fingerprint() == r.Fingerprint() {
		t.Fatal("different paths share a fingerprint")
	}
	if p.Fingerprint() == p.Reversed().Fingerprint() {
		t.Fatal("reversed path shares fingerprint with forward path")
	}
}

func TestPathString(t *testing.T) {
	p := samplePath()
	want := "1-ff00:0:111 2>1 1-ff00:0:110 4>3 1-ff00:0:112"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	empty := &Path{Src: ia111, Dst: ia111}
	if got := empty.String(); got == "" {
		t.Fatal("empty path renders empty string")
	}
}

func TestMetadataISDs(t *testing.T) {
	m := Metadata{ASes: []addr.IA{
		addr.MustIA(1, 1), addr.MustIA(1, 2), addr.MustIA(2, 1), addr.MustIA(2, 2),
	}}
	isds := m.ISDs()
	if len(isds) != 2 || isds[0] != 1 || isds[1] != 2 {
		t.Fatalf("ISDs = %v", isds)
	}
}

func TestHopCount(t *testing.T) {
	if got := samplePath().HopCount(); got != 3 {
		t.Fatalf("HopCount = %d", got)
	}
}

func TestPathSameHops(t *testing.T) {
	exp := time.Date(2022, 10, 10, 6, 0, 0, 0, time.UTC)
	authed := func() *Path {
		p := samplePath()
		for i := range p.Hops {
			h := &p.Hops[i]
			h.NumAuth = 1
			h.Auth[0] = AuthField{
				HopField: HopField{ConsIngress: h.Ingress, ConsEgress: h.Egress, ExpTime: exp, MAC: MAC{byte(i), 1, 2}},
				SegInfo:  Info{Timestamp: exp.Add(-6 * time.Hour), SegID: 7, Origin: ia110},
			}
		}
		return p
	}
	base := authed()
	same := authed()
	same.Meta = Metadata{} // metadata does not forward packets
	same.Hops[1].Auth[0].HopField.ExpTime = exp.In(time.FixedZone("X", 3600))
	same.Hops[1].Auth[1].HopField.MAC[0] = 9 // beyond NumAuth
	if !base.SameHops(same) || !same.SameHops(base) {
		t.Fatal("paths forwarding alike reported different")
	}
	for name, mutate := range map[string]func(p *Path){
		"src":      func(p *Path) { p.Src = ia110 },
		"hops":     func(p *Path) { p.Hops = p.Hops[:2] },
		"ia":       func(p *Path) { p.Hops[1].IA = ia111 },
		"ingress":  func(p *Path) { p.Hops[1].Ingress = 9 },
		"egress":   func(p *Path) { p.Hops[1].Egress = 9 },
		"numauth":  func(p *Path) { p.Hops[1].NumAuth = 2 },
		"mac":      func(p *Path) { p.Hops[1].Auth[0].HopField.MAC[2] ^= 1 },
		"exptime":  func(p *Path) { p.Hops[1].Auth[0].HopField.ExpTime = exp.Add(time.Second) },
		"consin":   func(p *Path) { p.Hops[1].Auth[0].HopField.ConsIngress = 9 },
		"seginfo":  func(p *Path) { p.Hops[1].Auth[0].SegInfo.SegID = 8 },
		"segstamp": func(p *Path) { p.Hops[1].Auth[0].SegInfo.Timestamp = exp },
	} {
		p := authed()
		mutate(p)
		if base.SameHops(p) {
			t.Errorf("%s: changed path reported the same", name)
		}
	}
}
