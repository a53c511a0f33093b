package squic

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
)

// TestMirrorPathKeptWhileHopsMatch: a server connection keeps its mirrored
// path object while the client's packets arrive over an equal path (so the
// memoized fingerprint and wire template survive), and installs the fresh
// reply path as soon as any hop field differs.
func TestMirrorPathKeptWhileHopsMatch(t *testing.T) {
	clock := netsim.NewSimClock(time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC))
	cfg := (&Config{Clock: clock}).withDefaults()
	c := newConn(&discardPconn{clock: clock}, cfg, false)
	keys, err := deriveKeys([]byte("shared-secret-for-mirror-test..."), []byte("transcript"))
	if err != nil {
		t.Fatal(err)
	}
	c.keys, c.established, c.connID = keys, true, 7

	src := addr.IA{ISD: 1, AS: 0xff0000000111}
	dst := addr.IA{ISD: 1, AS: 0xff0000000110}
	exp := time.Date(2022, 10, 10, 6, 0, 0, 0, time.UTC)
	replyPath := func() *segment.Path {
		p := &segment.Path{Src: src, Dst: dst, Hops: []segment.Hop{
			{IA: src, Egress: 1, NumAuth: 1},
			{IA: dst, Ingress: 2, NumAuth: 1},
		}}
		for i := range p.Hops {
			p.Hops[i].Auth[0].HopField = segment.HopField{ExpTime: exp, MAC: segment.MAC{byte(i)}}
		}
		return p
	}
	pn := uint64(0)
	receive := func(path *segment.Path) {
		hdr := header{ptype: ptOneRTT, connID: 7, pktNum: pn}
		pn++
		aad := hdr.append(nil)
		body := keys.clientSeal.Seal(nil, packetNonce(hdr.pktNum), pingFrame{}.append(nil), aad)
		c.handleOneRTT(hdr, body, &snet.Datagram{ReplyPath: path})
	}

	first := replyPath()
	receive(first)
	fp := first.Fingerprint()
	for i := 0; i < 3; i++ {
		receive(replyPath())
		if c.MirrorPath() != first || c.Path() != first {
			t.Fatalf("packet %d over an equal path replaced the mirrored path", i)
		}
	}
	if first.Fingerprint() != fp {
		t.Fatal("fingerprint changed")
	}

	changed := replyPath()
	changed.Hops[1].Auth[0].HopField.MAC[3] ^= 1
	receive(changed)
	if c.MirrorPath() != changed || c.Path() != changed {
		t.Fatal("a changed hop field did not replace the mirrored path")
	}

	// Steered: the mirror still follows the client; the send path stays.
	steer := replyPath()
	c.SetReplyPath(steer)
	back := replyPath()
	receive(back)
	if c.MirrorPath() != back || c.Path() != steer {
		t.Fatalf("steered conn: mirror %p path %p, want %p %p", c.MirrorPath(), c.Path(), back, steer)
	}
}
