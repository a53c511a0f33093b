package rtt

import (
	"testing"
	"time"
)

func TestObserveFirstSampleAndEWMA(t *testing.T) {
	var e Estimator
	if got := e.Observe(80 * time.Millisecond); got != 80*time.Millisecond {
		t.Fatalf("Observe returned %v", got)
	}
	if e.SRTT != 80*time.Millisecond || e.RTTVar != 40*time.Millisecond || e.Samples != 1 {
		t.Fatalf("first sample: %+v, want srtt=80ms rttvar=40ms samples=1", e)
	}
	e.Observe(160 * time.Millisecond)
	// rttvar = (3*40 + |80-160|)/4 = 50ms; srtt = (7*80 + 160)/8 = 90ms.
	if e.SRTT != 90*time.Millisecond || e.RTTVar != 50*time.Millisecond || e.Samples != 2 {
		t.Fatalf("second sample: %+v, want srtt=90ms rttvar=50ms samples=2", e)
	}
}

func TestSeededEstimatorAveragesFirstSample(t *testing.T) {
	var e Estimator
	e.Seed(100*time.Millisecond, 0)
	if e.SRTT != 100*time.Millisecond || e.RTTVar != 50*time.Millisecond || e.Samples != 0 {
		t.Fatalf("seeded: %+v, want srtt=100ms rttvar=50ms (dev defaults to srtt/2) samples=0", e)
	}
	e.Observe(20 * time.Millisecond)
	// Through the EWMA, not adopted: srtt = (700+20)/8 = 90ms,
	// rttvar = (150 + 80)/4 = 57.5ms.
	if e.SRTT != 90*time.Millisecond || e.RTTVar != 57500*time.Microsecond {
		t.Fatalf("first sample after seed: %+v, want srtt=90ms rttvar=57.5ms", e)
	}
	var empty Estimator
	empty.Seed(0, time.Second)
	if empty != (Estimator{}) {
		t.Fatalf("non-positive seed filled the estimator: %+v", empty)
	}
}

func TestObserveFloorsSamples(t *testing.T) {
	var e Estimator
	for _, s := range []time.Duration{0, -time.Second, 200 * time.Nanosecond} {
		if got := e.Observe(s); got != MinSample {
			t.Fatalf("Observe(%v) = %v, want the %v floor", s, got, MinSample)
		}
	}
	if e.SRTT < MinSample {
		t.Fatalf("srtt %v truncated below the floor", e.SRTT)
	}
}
