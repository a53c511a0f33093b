package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a p90
// needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which it sorts in place. ok is false when fewer than minBeyond samples lie
// beyond the rank, so the value would rest on too few observations.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minBeyond
}

// stalled reports whether an op's virtual duration marks it as a stall: a
// jump to a protocol timeout rather than network and processing delay.
func stalled(virt, limit time.Duration) bool { return virt > limit }

// splitStalls partitions virtual op durations (in ms) at the stall limit,
// returning the durations within it and the number beyond it.
func splitStalls(virtMS []float64, limit time.Duration) (within []float64, stalls int) {
	within = make([]float64, 0, len(virtMS))
	for _, v := range virtMS {
		if stalled(time.Duration(v*float64(time.Millisecond)), limit) {
			stalls++
			continue
		}
		within = append(within, v)
	}
	return within, stalls
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat reads the aggregate "cpu" line of a /proc/stat dump. The
// total covers user, nice, system, idle, iowait, irq, softirq and steal;
// guest time is already included in user and nice, so it is not added.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		var ct cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc/stat: field %d: %w", i+1, err)
			}
			ct.total += v
			if i == 7 {
				ct.steal = v
			}
		}
		return ct, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, fmt.Errorf("proc/stat: %w", err)
	}
	return cpuTimes{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// stealShare is the share of all CPU time between two readings that the
// hypervisor gave to other guests.
func stealShare(before, after cpuTimes) float64 {
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// median of a copy of samples, with no minimum-sample rule; used for the
// few set-up repetitions.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
