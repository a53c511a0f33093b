package squic

import (
	"iter"
	"sort"
	"time"
)

// sentPacket is one ack-eliciting packet in the in-flight ledger.
type sentPacket struct {
	pn     uint64
	frames []frame
	size   int
	sentAt time.Time
	// live is cleared once the packet is acked, declared lost or
	// retransmitted; its frames are released at the same time.
	live bool
}

// sentLedger holds the in-flight ack-eliciting packets as value entries in
// packet-number order. Packet numbers only grow, so add is an append; acks,
// loss detection and PTO walk the entries in ascending order without
// sorting. Entries settled out of order stay behind as dead slots until
// everything before them has settled too: trim drops the dead front, so
// ents[head:] always starts with a live entry (or is empty).
//
// The sender's loss rule keeps that live window short. Every live packet at
// least packetThreshold below the largest acked one is declared lost on the
// next ack, so the dead slots inside the window lie within packetThreshold of
// its front, and a walk of the window costs what it settles.
type sentLedger struct {
	ents []sentPacket
	head int
	live int // packets in flight
}

// packetThreshold is the reordering distance past which an unacked packet
// is declared lost.
const packetThreshold = 3

// add appends a packet; pn must exceed every packet number added before.
func (l *sentLedger) add(pn uint64, frames []frame, size int, sentAt time.Time) {
	if l.head > 0 && l.head >= len(l.ents)/2 {
		// Slide the window down over the dead prefix, clearing the vacated
		// tail so the stale copies hold no frames. The prefix it reclaims is
		// at least as long as the copy, so adds stay amortized O(1) and the
		// backing array stops growing once the window's size is reached.
		n := copy(l.ents, l.ents[l.head:])
		clear(l.ents[n:])
		l.ents = l.ents[:n]
		l.head = 0
	}
	l.ents = append(l.ents, sentPacket{pn: pn, frames: frames, size: size, sentAt: sentAt, live: true})
	l.live++
}

// settle marks a yielded packet as no longer in flight. Entries never move
// while an iteration is running; trim reclaims them afterwards.
func (l *sentLedger) settle(sp *sentPacket) {
	sp.live = false
	sp.frames = nil
	l.live--
}

// trim drops the dead entries at the front of the window.
func (l *sentLedger) trim() {
	if l.live == 0 {
		l.ents = l.ents[:0] // settled entries hold no frames
		l.head = 0
		return
	}
	for !l.ents[l.head].live {
		l.head++
	}
}

// acked yields the live packets f covers, in ascending packet-number order.
// Only the ranges overlapping the window are visited, each located by binary
// search. A frame whose ranges are not ascending and disjoint (only a broken
// or hostile peer sends one) falls back to testing every live packet with
// covers, which keeps exactly covers' verdicts.
func (l *sentLedger) acked(f *ackFrame) iter.Seq[*sentPacket] {
	return func(yield func(*sentPacket) bool) {
		if l.live == 0 {
			return
		}
		if !wellFormed(f.ranges) {
			for i := l.head; i < len(l.ents); i++ {
				if sp := &l.ents[i]; sp.live && f.covers(sp.pn) && !yield(sp) {
					return
				}
			}
			return
		}
		w := l.ents[l.head:]
		front, back := w[0].pn, w[len(w)-1].pn
		rs := f.ranges
		rs = rs[sort.Search(len(rs), func(i int) bool { return rs[i].hi >= front }):]
		for _, r := range rs {
			if r.lo > back {
				return
			}
			first := l.head + sort.Search(len(w), func(i int) bool { return w[i].pn >= r.lo })
			for i := first; i < len(l.ents) && l.ents[i].pn <= r.hi; i++ {
				if sp := &l.ents[i]; sp.live && !yield(sp) {
					return
				}
			}
		}
	}
}

// lost yields, in ascending order, the live packets that fall packetThreshold
// or more below largestAcked. They form a prefix of the window.
func (l *sentLedger) lost(largestAcked int64) iter.Seq[*sentPacket] {
	return func(yield func(*sentPacket) bool) {
		if largestAcked < 0 {
			return
		}
		for i := l.head; i < len(l.ents) && l.ents[i].pn+packetThreshold <= uint64(largestAcked); i++ {
			if sp := &l.ents[i]; sp.live && !yield(sp) {
				return
			}
		}
	}
}

// all yields every live packet in ascending order.
func (l *sentLedger) all() iter.Seq[*sentPacket] {
	return func(yield func(*sentPacket) bool) {
		for i := l.head; i < len(l.ents); i++ {
			if sp := &l.ents[i]; sp.live && !yield(sp) {
				return
			}
		}
	}
}

// wellFormed reports whether ranges are ascending, disjoint and each lo <=
// hi — the shape the peer's receive history always has.
func wellFormed(ranges []ackRange) bool {
	for i, r := range ranges {
		if r.lo > r.hi || (i > 0 && ranges[i-1].hi >= r.lo) {
			return false
		}
	}
	return true
}
