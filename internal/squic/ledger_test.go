package squic

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/snet"
)

// refSender is the reference model for the sender's ack processing: the
// map-plus-sort algorithm the in-flight ledger replaced, kept verbatim. Every
// ack scans the whole in-flight map against the frame, sorts the acked and
// lost packet numbers, and PTO sorts the map's keys.
type refSender struct {
	sent          map[uint64]*refSent
	nextPN        uint64
	inFlight      int
	cwnd          int
	largestAcked  int64
	recoveryEnd   uint64
	srtt, rttvar  time.Duration
	rttSamples    int
	ptoBackoff    uint
	queued        []frame
	maxPacketSize int

	// Per-operation logs.
	acked, lost []uint64
	samples     []time.Duration
}

type refSent struct {
	frames []frame
	size   int
	sentAt time.Time
}

func newRefSender(cfg *Config) *refSender {
	return &refSender{
		sent:          make(map[uint64]*refSent),
		cwnd:          cfg.InitialCwnd,
		largestAcked:  -1,
		maxPacketSize: cfg.MaxPacketSize,
	}
}

func (r *refSender) send(frames []frame, ackEliciting bool, size int, now time.Time) {
	pn := r.nextPN
	r.nextPN++
	if !ackEliciting {
		return
	}
	var kept []frame
	for _, f := range frames {
		if f.retransmittable() {
			kept = append(kept, f)
		}
	}
	r.sent[pn] = &refSent{frames: kept, size: size, sentAt: now}
	r.inFlight += size
}

func (r *refSender) sampleRTT(rtt time.Duration) {
	if rtt < MinRTTSample {
		rtt = MinRTTSample
	}
	if r.rttSamples == 0 {
		r.srtt = rtt
		r.rttvar = rtt / 2
	} else {
		d := r.srtt - rtt
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.rttSamples++
	r.samples = append(r.samples, rtt)
}

func (r *refSender) handleAck(f *ackFrame, now time.Time) {
	var acked []uint64
	for pn := range r.sent {
		if f.covers(pn) {
			acked = append(acked, pn)
		}
	}
	slices.Sort(acked)
	r.acked = acked
	for _, pn := range acked {
		sp := r.sent[pn]
		delete(r.sent, pn)
		r.inFlight -= sp.size
		if int64(pn) > r.largestAcked {
			r.largestAcked = int64(pn)
			r.sampleRTT(now.Sub(sp.sentAt))
		}
		if r.cwnd < 4<<20 {
			r.cwnd += sp.size
		}
	}
	if len(acked) == 0 {
		return
	}
	r.ptoBackoff = 0
	var lost []uint64
	for pn := range r.sent {
		if r.largestAcked >= 0 && pn+3 <= uint64(r.largestAcked) {
			lost = append(lost, pn)
		}
	}
	slices.Sort(lost)
	r.lost = lost
	for _, pn := range lost {
		sp := r.sent[pn]
		delete(r.sent, pn)
		r.inFlight -= sp.size
		r.queued = append(r.queued, sp.frames...)
		if pn >= r.recoveryEnd {
			r.cwnd = maxInt(r.cwnd/2, 2*r.maxPacketSize)
			r.recoveryEnd = r.nextPN
		}
	}
}

func (r *refSender) onPTO() {
	if len(r.sent) == 0 {
		return
	}
	if r.ptoBackoff < maxPTOBackoff {
		r.ptoBackoff++
	}
	var pns []uint64
	for pn := range r.sent {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	r.lost = pns
	for _, pn := range pns {
		sp := r.sent[pn]
		delete(r.sent, pn)
		r.inFlight -= sp.size
		r.queued = append(r.queued, sp.frames...)
	}
}

// manualClock is a clock that moves only when told to and whose timers
// never fire: the harness fires PTOs itself.
type manualClock struct{ now time.Time }

func (m *manualClock) Now() time.Time                       { return m.now }
func (m *manualClock) Sleep(time.Duration)                  {}
func (m *manualClock) After(time.Duration) <-chan time.Time { return nil }
func (m *manualClock) AfterFunc(time.Duration, func()) func() bool {
	return func() bool { return true }
}
func (m *manualClock) Since(t time.Time) time.Duration { return m.now.Sub(t) }

// sizePconn records the size of every datagram written.
type sizePconn struct{ last int }

func (p *sizePconn) WriteTo(payload []byte, _ addr.UDPAddr, _ *segment.Path) error {
	p.last = len(payload)
	return nil
}
func (p *sizePconn) ReadFrom() (*snet.Datagram, error) { select {} }
func (p *sizePconn) LocalAddr() addr.UDPAddr           { return addr.UDPAddr{} }
func (p *sizePconn) SetReadDeadline(time.Time) error   { return nil }
func (p *sizePconn) Close() error                      { return nil }

// ledgerHarness drives a real connection's send/ack/PTO path and the
// reference model with the same operations. The connection is left
// unestablished so packetization is a no-op: frames the sender requeues stay
// in c.queued, where their order can be compared with the model's.
type ledgerHarness struct {
	t     testing.TB
	clock *manualClock
	pconn *sizePconn
	c     *Conn
	ref   *refSender
	// pnOf maps a packet's first stream frame back to its packet number, so
	// the requeue order can be read as a lost-packet order. Ping-only packets
	// carry no distinguishable frame; the queued-frame comparison in check
	// covers them.
	pnOf    map[frame]uint64
	dataPN  map[uint64]bool
	samples []time.Duration
	// recv is a peer receive history for realistic ack frames.
	recv rangeSet
}

func newLedgerHarness(t testing.TB) *ledgerHarness {
	clock := &manualClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	pconn := &sizePconn{}
	cfg := (&Config{Clock: clock, InitialCwnd: 64 << 10}).withDefaults()
	c := newConn(pconn, cfg, true)
	keys, err := deriveKeys([]byte("shared-secret-for-ledger-test..."), []byte("transcript"))
	if err != nil {
		t.Fatal(err)
	}
	c.keys = keys
	h := &ledgerHarness{t: t, clock: clock, pconn: pconn, c: c, ref: newRefSender(cfg), pnOf: map[frame]uint64{}, dataPN: map[uint64]bool{}}
	c.OnRTTSampleBatch(func(rtts []time.Duration) { h.samples = append(h.samples, rtts...) })
	return h
}

// send transmits one packet: nData unique stream frames, an optional ack
// frame (not retransmittable) and an optional ping. A packet with no data
// and no ping is ack-only and never enters the ledger.
func (h *ledgerHarness) send(nData int, withAck, withPing bool) {
	pn := h.c.nextPN
	var frames []frame
	if withAck {
		frames = append(frames, &ackFrame{ranges: []ackRange{{lo: 0, hi: pn}}})
	}
	for i := 0; i < nData; i++ {
		sf := &streamFrame{id: 4, offset: pn<<8 | uint64(i), data: make([]byte, 16*i)}
		if i == 0 {
			h.pnOf[sf] = pn
			h.dataPN[pn] = true
		}
		frames = append(frames, sf)
	}
	if withPing {
		frames = append(frames, pingFrame{})
	}
	ackEliciting := nData > 0 || withPing
	h.c.mu.Lock()
	h.c.sendPacketLocked(frames, ackEliciting)
	h.c.mu.Unlock()
	h.ref.send(frames, ackEliciting, h.pconn.last, h.clock.now)
	h.check("send")
}

func (h *ledgerHarness) ack(f *ackFrame) {
	var acked []uint64
	h.c.mu.Lock()
	for sp := range h.c.sent.acked(f) {
		acked = append(acked, sp.pn)
	}
	queued := len(h.c.queued)
	h.c.handleAckLocked(f)
	lost := h.lostSince(queued)
	h.c.mu.Unlock()
	h.c.flushRTTSamples()

	h.ref.acked, h.ref.lost, h.ref.samples = nil, nil, nil
	h.ref.handleAck(f, h.clock.now)
	if !slices.Equal(acked, h.ref.acked) {
		h.t.Fatalf("ack %v: acked order %v, reference %v", f.ranges, acked, h.ref.acked)
	}
	if want := h.withData(h.ref.lost); !slices.Equal(lost, want) {
		h.t.Fatalf("ack %v: lost order %v, reference %v", f.ranges, lost, want)
	}
	if want := coalesced(h.ref.samples, len(h.c.pendingRTT)); !slices.Equal(h.samples, want) {
		h.t.Fatalf("ack %v: RTT samples %v, reference %v", f.ranges, h.samples, want)
	}
	h.samples = h.samples[:0]
	h.check(fmt.Sprintf("ack %v", f.ranges))
}

func (h *ledgerHarness) pto() {
	h.c.mu.Lock()
	h.c.ptoDeadline = time.Time{} // due now
	queued := len(h.c.queued)
	h.c.mu.Unlock()
	h.c.onPTO()
	h.c.mu.Lock()
	requeued := h.lostSince(queued)
	h.c.mu.Unlock()

	h.ref.lost = nil
	h.ref.onPTO()
	if want := h.withData(h.ref.lost); !slices.Equal(requeued, want) {
		h.t.Fatalf("PTO retransmit order %v, reference %v", requeued, want)
	}
	h.check("pto")
}

// lostSince reads the packet numbers whose frames were requeued after the
// first n queued frames, in requeue order.
func (h *ledgerHarness) lostSince(n int) []uint64 {
	var pns []uint64
	for _, f := range h.c.queued[n:] {
		if pn, ok := h.pnOf[f]; ok {
			pns = append(pns, pn)
		}
	}
	return pns
}

// withData filters pns to the packets that carried stream frames.
func (h *ledgerHarness) withData(pns []uint64) []uint64 {
	var out []uint64
	for _, pn := range pns {
		if h.dataPN[pn] {
			out = append(out, pn)
		}
	}
	return out
}

// coalesced applies the connection's pending-sample buffer rule: the oldest
// n-1 samples of a burst survive, plus the newest.
func coalesced(s []time.Duration, n int) []time.Duration {
	if len(s) <= n {
		return s
	}
	return append(slices.Clip(s[:n-1]), s[len(s)-1])
}

// check compares the connection with the model and asserts the ledger's
// own invariants.
func (h *ledgerHarness) check(op string) {
	c, r := h.c, h.ref
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inFlight != r.inFlight || c.cwnd != r.cwnd || c.largestAcked != r.largestAcked ||
		c.recoveryEnd != r.recoveryEnd || c.ptoBackoff != r.ptoBackoff || c.nextPN != r.nextPN {
		h.t.Fatalf("after %s: inFlight=%d cwnd=%d largest=%d recoveryEnd=%d backoff=%d nextPN=%d, reference %d %d %d %d %d %d",
			op, c.inFlight, c.cwnd, c.largestAcked, c.recoveryEnd, c.ptoBackoff, c.nextPN,
			r.inFlight, r.cwnd, r.largestAcked, r.recoveryEnd, r.ptoBackoff, r.nextPN)
	}
	if c.rtt.SRTT != r.srtt || c.rtt.RTTVar != r.rttvar || c.rtt.Samples != r.rttSamples {
		h.t.Fatalf("after %s: rtt %+v, reference srtt=%v rttvar=%v samples=%d", op, c.rtt, r.srtt, r.rttvar, r.rttSamples)
	}
	if !slices.Equal(c.queued, r.queued) {
		h.t.Fatalf("after %s: queued frames diverge (%d vs %d)", op, len(c.queued), len(r.queued))
	}
	l := &c.sent
	if l.live != len(r.sent) {
		h.t.Fatalf("after %s: %d in flight, reference %d", op, l.live, len(r.sent))
	}
	live, dead := 0, 0
	for i := l.head; i < len(l.ents); i++ {
		sp := &l.ents[i]
		if i > l.head && sp.pn <= l.ents[i-1].pn {
			h.t.Fatalf("after %s: ledger out of order at %d", op, i)
		}
		if !sp.live {
			dead++
			continue
		}
		live++
		if want, ok := r.sent[sp.pn]; !ok || want.size != sp.size || !want.sentAt.Equal(sp.sentAt) || !slices.Equal(want.frames, sp.frames) {
			h.t.Fatalf("after %s: ledger entry %d does not match the reference", op, sp.pn)
		}
	}
	if live != l.live {
		h.t.Fatalf("after %s: live count %d, walked %d", op, l.live, live)
	}
	if live > 0 && !l.ents[l.head].live {
		h.t.Fatalf("after %s: window front %d is dead", op, l.ents[l.head].pn)
	}
	// The loss rule bounds the dead slots a walk of the window revisits.
	if dead >= packetThreshold {
		h.t.Fatalf("after %s: %d dead slots inside the window", op, dead)
	}
}

// byteSource feeds fuzz bytes (or random ones) to the operation decoder.
type byteSource struct {
	data []byte
	rnd  *rand.Rand
}

func (b *byteSource) more() bool { return b.rnd != nil || len(b.data) > 0 }

func (b *byteSource) next() byte {
	if b.rnd != nil {
		return byte(b.rnd.Intn(256))
	}
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

// runLedgerOps decodes operations from src and applies them to both sides.
func runLedgerOps(h *ledgerHarness, src *byteSource, maxOps int) {
	for i := 0; i < maxOps && src.more(); i++ {
		op := src.next()
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5: // data packet, sometimes piggybacking an ack
			h.send(1+int(op>>4)%3, op&0x10 != 0, op&0x20 != 0)
		case 6: // ack-only packet
			h.send(0, true, false)
		case 7: // ping-only packet
			h.send(0, false, true)
		case 8, 9, 10: // the peer receives some recent packets; ack its history
			h.deliver(src)
			h.ack(&ackFrame{ranges: slices.Clone(h.recv.ranges())})
		case 11: // replay of a stale or duplicate ack
			h.ack(h.randomAck(src, true))
		case 12: // arbitrary well-formed ranges, possibly past nextPN
			h.ack(h.randomAck(src, false))
		case 13: // malformed ranges (unsorted, overlapping, reversed)
			h.ack(h.malformedAck(src))
		case 14:
			h.pto()
		case 15:
			h.clock.now = h.clock.now.Add(time.Duration(src.next()) * 97 * time.Microsecond)
		}
	}
}

// deliver marks a random subset of the last few sent packets as received.
func (h *ledgerHarness) deliver(src *byteSource) {
	n := h.c.nextPN
	mask := src.next()
	span := uint64(1 + src.next()%24)
	lo := uint64(0)
	if n > span {
		lo = n - span
	}
	for pn := lo; pn < n; pn++ {
		// Drop roughly one packet in eight, chosen by the mask.
		if (pn*37+uint64(mask))%8 != 0 {
			h.recv.add(pn)
		}
	}
}

// randomAck builds ascending, disjoint ranges. Stale ones sit below the
// largest acked packet, where everything has already settled.
func (h *ledgerHarness) randomAck(src *byteSource, stale bool) *ackFrame {
	limit := h.c.nextPN + 4
	if stale && h.c.largestAcked >= 0 {
		limit = uint64(h.c.largestAcked) + 1
	}
	var pns []uint64
	for k := int(src.next() % 6); k >= 0; k-- {
		lo := uint64(src.next()) * limit / 256
		for pn := lo; pn < lo+uint64(src.next()%8) && pn < limit; pn++ {
			pns = append(pns, pn)
		}
	}
	var rs rangeSet
	for _, pn := range pns {
		rs.add(pn)
	}
	return &ackFrame{ranges: rs.rs}
}

func (h *ledgerHarness) malformedAck(src *byteSource) *ackFrame {
	f := &ackFrame{}
	limit := h.c.nextPN + 4
	for k := 1 + int(src.next()%5); k > 0; k-- {
		lo := uint64(src.next()) * limit / 256
		hi := lo + uint64(src.next()%6)
		if src.next()%4 == 0 {
			lo, hi = hi, lo
		}
		f.ranges = append(f.ranges, ackRange{lo: lo, hi: hi})
	}
	return f
}

// TestAckLedgerMatchesReference is the differential test of the in-flight
// ledger against the map-plus-sort reference model, over seeded random
// operation sequences. Their windows hold a few dozen packets at most and
// slide and compact many times; TestAckLedgerWideWindow holds a thousand.
func TestAckLedgerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		h := newLedgerHarness(t)
		runLedgerOps(h, &byteSource{rnd: rand.New(rand.NewSource(seed))}, 1500)
	}
}

// TestAckLedgerWideWindow holds a window of a thousand packets and acks it
// with holes in ascending batches: each ack settles its batch, declares the
// holes lost in order, and leaves the window compact.
func TestAckLedgerWideWindow(t *testing.T) {
	h := newLedgerHarness(t)
	for i := 0; i < 1000; i++ {
		h.send(1, false, false)
		if i%50 == 49 {
			h.clock.now = h.clock.now.Add(time.Millisecond)
		}
	}
	for pn := uint64(0); pn < 1000; pn++ {
		if pn%97 != 0 {
			h.recv.add(pn)
		}
		if pn%10 == 9 {
			h.ack(&ackFrame{ranges: slices.Clone(h.recv.ranges())})
		}
	}
	if h.c.sent.live != 0 {
		t.Fatalf("%d packets still in flight after every packet was acked or lost", h.c.sent.live)
	}
}

// FuzzAckLedger drives the ledger and the reference model with fuzzed
// operation sequences: sends with and without ack-eliciting frames, ack
// frames with holes, stale, duplicate and malformed ranges, PTO firings and
// clock steps.
func FuzzAckLedger(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 8, 3, 5, 15, 9, 8, 0, 8, 0, 11, 7, 3, 14})
	f.Add([]byte{0x10, 0x21, 0x32, 6, 7, 0, 0, 15, 40, 8, 0xff, 20, 12, 3, 50, 4, 13, 2, 9, 9, 0, 4, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 14, 0, 0, 8, 1, 6, 14, 14, 8, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runLedgerOps(newLedgerHarness(t), &byteSource{data: data}, 4096)
	})
}
