package main

import (
	"context"
	"sort"

	"tango/internal/pan"
	"tango/internal/proxy"
)

// counters are the layers' cumulative counters, read before and after the
// traced phase.
type counters struct {
	forwarded, delivered, drops uint64 // all border routers
	linkBytes, linkLost, tooBig uint64 // all SCION links, both directions
	records                     int    // proxy request records
	fallbacks                   int
	ingest                      pan.IngestStats
	passive, probes             int // sample splits over all origins
}

func readCounters(b *bench) counters {
	var c counters
	w := b.world
	for _, as := range w.Topo.ASes() {
		st := w.DW.Router(as.IA).Stats()
		c.forwarded += st.Forwarded
		c.delivered += st.Delivered
		c.drops += st.BadMAC + st.Expired + st.WrongIA + st.NoInterface + st.ParseError +
			st.WrongIngress + st.Unauthorized + st.NoLocalHosts + st.SendRejected
	}
	for _, l := range w.DW.Links() {
		for end := 0; end < 2; end++ {
			st := l.Stats(end)
			c.linkBytes += st.Bytes
			c.linkLost += st.Lost
			c.tooBig += st.TooBig
		}
	}
	snap := b.proxy.Stats().Snapshot()
	c.records = snap.Total
	c.fallbacks = snap.ByVia[proxy.ViaFallback]
	if snap.Ingest != nil {
		c.ingest = *snap.Ingest
	}
	for _, split := range snap.Samples {
		c.passive += split.Passive
		c.probes += split.Probes
	}
	return c
}

// moduleMetrics are the modules whose CPU share is reported by name; other
// tango/internal modules are summed as other.cpu_share.
var moduleMetrics = []string{
	"proxy", "pan", "stripe", "squic", "shttp", "webserver",
	"dataplane", "netsim", "browser", "pathdb", runtimeModule,
}

func sortedModules(shares map[string]float64) []string {
	out := make([]string, 0, len(shares))
	for m := range shares {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return shares[out[i]] > shares[out[j]] })
	return out
}

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// p50 is the median of samples when enough of them exist, else 0.
func p50(samples []float64) float64 {
	v, ok := percentile(samples, 0.5)
	if !ok {
		return 0
	}
	return v
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(b *bench, ph phase, s opStats, spans []*span, c0, c1 counters, cpu cpuAttribution) *metrics {
	ops := float64(s.n)
	out := newMetrics()

	var pageWall, reqWall, dialWall, dialVirt []float64
	pages, reqsInPages, dialStalls := 0, 0, 0
	pageIDs := map[int]bool{}
	for _, sp := range spans {
		if sp.name == "page" {
			pageIDs[sp.id] = true
		}
	}
	for _, sp := range spans {
		switch sp.name {
		case "page":
			pages++
			pageWall = append(pageWall, ms(sp.wall()))
		case "proxy.request":
			reqWall = append(reqWall, ms(sp.wall()))
			if pageIDs[sp.parent] {
				reqsInPages++
			}
		case "pan.dial":
			dialWall = append(dialWall, ms(sp.wall()))
			dialVirt = append(dialVirt, ms(sp.virt()))
			if stalled(sp.virt(), stallLimit) {
				dialStalls++
			}
		}
	}
	out.add("browser.page_wall_ms", p50(pageWall), "ms")
	out.add("browser.requests_per_page", share(float64(reqsInPages), float64(pages)), "count")

	recs := b.proxy.Stats().Records()
	if c0.records <= len(recs) {
		recs = recs[c0.records:]
	}
	var reqVirt, ttfb []float64
	reassigned := 0
	pathBytes := map[string]int64{}
	var stripedBytes int64
	for _, r := range recs {
		reqVirt = append(reqVirt, ms(r.Duration))
		if r.TTFB > 0 {
			ttfb = append(ttfb, ms(r.TTFB))
		}
		if r.Striped {
			reassigned += r.Reassigned
			for fp, n := range r.PathBytes {
				pathBytes[fp] += n
				stripedBytes += n
			}
		}
	}
	var maxPath int64
	for _, n := range pathBytes {
		if n > maxPath {
			maxPath = n
		}
	}
	out.add("proxy.req_wall_ms_p50", p50(reqWall), "ms")
	out.add("proxy.req_virt_ms_p50", p50(reqVirt), "virt_ms")
	out.add("proxy.ttfb_virt_ms_p50", p50(ttfb), "virt_ms")
	out.add("proxy.fallback_share", share(float64(c1.fallbacks-c0.fallbacks), float64(len(recs))), "share")

	fresh := 0
	rttSamples := 0
	for _, r := range ph.ops {
		if r.freshDial {
			fresh++
		}
		rttSamples += r.rttSamples
	}
	out.add("pan.dial_wall_ms", p50(dialWall), "ms")
	out.add("pan.dial_virt_ms", p50(dialVirt), "virt_ms")
	out.add("pan.dial_stall_share", share(float64(dialStalls), float64(len(dialVirt))), "share")
	out.add("pan.dials_per_op", share(float64(fresh), ops), "count")

	in0, in1 := c0.ingest, c1.ingest
	applied := float64(in1.Applied - in0.Applied)
	out.add("pan.ingest_applied_per_op", share(applied, ops), "count")
	out.add("pan.ingest_dropped_share", share(float64(in1.Dropped-in0.Dropped), float64(in1.Enqueued-in0.Enqueued)), "share")
	out.add("pan.ingest_batch_mean", share(applied, float64(in1.Batches-in0.Batches)), "count")
	passive, probes := float64(c1.passive-c0.passive), float64(c1.probes-c0.probes)
	out.add("pan.probes_per_op", share(probes, ops), "count")
	out.add("pan.passive_share", share(passive, passive+probes), "share")

	out.add("stripe.reassigned_per_op", share(float64(reassigned), ops), "count")
	out.add("stripe.max_path_byte_share", share(float64(maxPath), float64(stripedBytes)), "share")

	var srtt float64
	if conn, _, err := b.proxy.Dialer().Dial(context.Background(), b.remote, scionHost); err == nil {
		d, _, _ := conn.RTTStats()
		srtt = ms(d)
	}
	out.add("squic.srtt_ms", srtt, "virt_ms")
	out.add("squic.rtt_samples_per_op", share(float64(rttSamples), ops), "count")

	out.add("dataplane.pkts_forwarded_per_op", share(float64(c1.forwarded-c0.forwarded), ops), "count")
	out.add("dataplane.pkts_delivered_per_op", share(float64(c1.delivered-c0.delivered), ops), "count")
	out.add("dataplane.drops_per_op", share(float64(c1.drops-c0.drops), ops), "count")

	out.add("netsim.link_bytes_per_op", share(float64(c1.linkBytes-c0.linkBytes), ops), "bytes")
	out.add("netsim.link_lost_per_op", share(float64(c1.linkLost-c0.linkLost), ops), "count")
	out.add("netsim.too_big_per_op", share(float64(c1.tooBig-c0.tooBig), ops), "count")
	out.add("netsim.pending_timers_end", float64(b.world.Clock.PendingTimers()), "count")
	virtP90 := 0.0
	if s.virtP90OK {
		virtP90 = s.virtP90
	}
	out.add("netsim.virt_ms_p90", virtP90, "virt_ms")
	out.add("netsim.advancer_cpu_share", cpu.advancer, "share")

	other := 1.0
	for _, mod := range moduleMetrics {
		out.add(mod+".cpu_share", cpu.shares[mod], "share")
		other -= cpu.shares[mod]
	}
	if other < 0 {
		other = 0
	}
	out.add("other.cpu_share", other, "share")

	out.add("run.stall_share", s.stallShare, "share")
	out.add("run.fail_share", share(float64(s.failed), ops), "share")
	return out
}
