// Package rtt holds the Jacobson/Karels smoothed round-trip estimator shared
// by squic's ack clock and the striped-transfer pipelines.
package rtt

import "time"

// MinSample floors every observed sample. A LAN-fast (or zero-latency
// virtual) path can complete a round trip within the clock's granularity;
// without the floor the integer EWMA divisions truncate SRTT toward 0 and a
// trafficked estimator would report "no" round-trip time.
const MinSample = time.Microsecond

// Estimator is the RFC 6298 estimator: SRTT moves 1/8 and RTTVar 1/4 of the
// way toward each sample. The zero value is empty. Fields are read-only to
// callers; Seed and Observe are the only writers.
type Estimator struct {
	SRTT, RTTVar time.Duration
	// Samples counts observed samples; seeding does not count.
	Samples int
}

// Seed primes an empty estimator from an outside estimate (monitor
// telemetry, a handshake latency). A non-positive dev defaults to srtt/2; a
// non-positive srtt leaves the estimator empty. A seeded estimator sends its
// first sample through the EWMA instead of adopting it outright.
func (e *Estimator) Seed(srtt, dev time.Duration) {
	if srtt <= 0 {
		return
	}
	if dev <= 0 {
		dev = srtt / 2
	}
	e.SRTT, e.RTTVar = srtt, dev
}

// Observe folds one sample, floored at MinSample, into the estimate and
// returns the floored sample.
func (e *Estimator) Observe(rtt time.Duration) time.Duration {
	if rtt < MinSample {
		rtt = MinSample
	}
	if e.Samples == 0 && e.SRTT == 0 {
		e.SRTT = rtt
		e.RTTVar = rtt / 2
	} else {
		d := e.SRTT - rtt
		if d < 0 {
			d = -d
		}
		e.RTTVar = (3*e.RTTVar + d) / 4
		e.SRTT = (7*e.SRTT + rtt) / 8
	}
	e.Samples++
	return rtt
}
