package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/experiments"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/squic"
)

// stallLimit separates legitimate ops from stalls. Every legitimate op of
// these workloads takes at most about 0.8 s of virtual time when the
// virtual clock is exact (GOMAXPROCS=1); a stall jumps to squic's 10 s
// handshake timeout.
const stallLimit = 5 * time.Second

// probeInterval is page-telemetry's base active-probe interval.
const probeInterval = 500 * time.Millisecond

// workload is one kind of op the benchmark repeats in a closed loop.
type workload struct {
	name string
	// prepare, when set, configures the client before warm-up.
	prepare func(b *bench)
	// op runs and checks one operation. tr is nil in untraced runs.
	op func(ctx context.Context, b *bench, tr *tracer) opResult
}

// opResult is one op's outcome. wall and virt cover the op's calls into
// the system, not the benchmark's checks.
type opResult struct {
	wall, virt time.Duration
	problem    string // "" when every output checked out
	// rttSamples is the number of ack RTT samples the pooled connection
	// took during the op (traced runs only).
	rttSamples int
	// freshDial reports whether the traced dial opened a new connection.
	freshDial bool
	// unstriped marks a stalled bulk op that the proxy completed without
	// striping.
	unstriped bool
}

var workloads = []workload{
	{name: "page-warm", op: pageOp(false)},
	{name: "page-redial", op: pageOp(true)},
	{name: "bulk-striped", prepare: prepareBulk, op: bulkOp},
	{name: "page-telemetry", prepare: prepareTelemetry, op: pageOp(false)},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func prepareBulk(b *bench) {
	b.proxy.SetStripe(&pan.StripeOptions{Width: 2, SegmentSize: 128 << 10, MinStripeBytes: 128 << 10})
}

func prepareTelemetry(b *bench) {
	b.ext.SetProbing(probeInterval)
	b.ext.SetPassive(true)
}

// tracedDial times Dialer.Dial to the page's origin as a pan.dial span: a
// pool hit on warm workloads, a full path selection, race and handshake
// right after Invalidate. It returns the connection and its RTT sample
// count before the op.
func tracedDial(ctx context.Context, b *bench, tr *tracer, root *span) (*squic.Conn, int, bool, string) {
	d := b.proxy.Dialer()
	_, live := d.PoolState(b.remote, scionHost)
	sp := tr.start("pan.dial", root)
	conn, _, err := d.Dial(ctx, b.remote, scionHost)
	tr.end(sp)
	if err != nil {
		return nil, 0, !live, fmt.Sprintf("dial %s: %v", scionHost, err)
	}
	_, _, samples := conn.RTTStats()
	return conn, samples, !live, ""
}

// pageOp loads the demo page through the browser, extension and proxy.
// With redial set, the dialer's pool is invalidated first, so the load
// pays path selection, racing and the handshake again.
func pageOp(redial bool) func(context.Context, *bench, *tracer) opResult {
	return func(ctx context.Context, b *bench, tr *tracer) opResult {
		var res opResult
		clock := b.world.Clock
		b.tap.reset()
		var root, page *span
		var conn *squic.Conn
		var rtt0 int
		v0, w0 := clock.Now(), wallNow()
		if tr != nil {
			root = tr.enter(tr.opName, nil)
		}
		if redial {
			d := b.proxy.Dialer()
			before := d.Epoch()
			d.Invalidate()
			if after := d.Epoch(); after != before+1 {
				res.problem = fmt.Sprintf("redial: epoch %d -> %d, want +1", before, after)
			}
		}
		if tr != nil {
			var problem string
			conn, rtt0, res.freshDial, problem = tracedDial(ctx, b, tr, root)
			if res.problem == "" {
				res.problem = problem
			}
			page = tr.enter("page", root)
		}
		pl, err := b.browser.LoadPage(ctx, pageURL)
		res.wall, res.virt = wallSince(w0), clock.Since(v0)
		if tr != nil {
			tr.end(page)
			tr.end(root)
			if conn != nil {
				_, _, n := conn.RTTStats()
				res.rttSamples = n - rtt0
			}
		}
		if res.problem == "" {
			res.problem = checkPage(pl, err)
		}
		if res.problem == "" {
			seen, problem := b.tap.result()
			switch {
			case problem != "":
				res.problem = problem
			case seen != pageResources+1:
				res.problem = fmt.Sprintf("proxy served %d requests, want %d", seen, pageResources+1)
			}
		}
		return res
	}
}

// checkPage verifies what the browser saw of one page load.
func checkPage(pl *browser.PageLoad, err error) string {
	if err != nil {
		return err.Error()
	}
	check := func(r browser.ResourceResult, size int64) string {
		switch {
		case r.Blocked:
			return r.URL + ": blocked"
		case r.Err != "":
			return r.URL + ": " + r.Err
		case r.Status != http.StatusOK:
			return fmt.Sprintf("%s: status %d", r.URL, r.Status)
		case size >= 0 && r.Bytes != size:
			return fmt.Sprintf("%s: %d bytes, want %d", r.URL, r.Bytes, size)
		case r.Via != proxy.ViaSCION:
			return fmt.Sprintf("%s: via %s, want scion", r.URL, r.Via)
		}
		return ""
	}
	if p := check(pl.Main, -1); p != "" {
		return p
	}
	if len(pl.Resources) != pageResources {
		return fmt.Sprintf("page has %d resources, want %d", len(pl.Resources), pageResources)
	}
	for _, r := range pl.Resources {
		if p := check(r, resourceSize); p != "" {
			return p
		}
	}
	if pl.Indicator != browser.AllSCION {
		return fmt.Sprintf("indicator %s, want all-scion", pl.Indicator)
	}
	return ""
}

// bulkOp fetches the 1 MiB resource through the proxy's ServeHTTP with
// striping on, as BenchmarkStripedTransfer does.
func bulkOp(ctx context.Context, b *bench, tr *tracer) opResult {
	var res opResult
	clock := b.world.Clock
	sink := b.bulkSink
	sink.reset()
	striped0 := b.proxy.Stats().Snapshot().Striped
	req := httptest.NewRequest(http.MethodGet, "http://"+scionHost+experiments.BigResourcePath, nil).WithContext(ctx)
	var root, sp *span
	var conn *squic.Conn
	var rtt0 int
	v0, w0 := clock.Now(), wallNow()
	if tr != nil {
		root = tr.enter(tr.opName, nil)
		conn, rtt0, res.freshDial, res.problem = tracedDial(ctx, b, tr, root)
		sp = tr.start("proxy.request", root)
	}
	b.proxy.ServeHTTP(sink, req)
	res.wall, res.virt = wallSince(w0), clock.Since(v0)
	if tr != nil {
		tr.end(sp)
		tr.end(root)
		if conn != nil {
			_, _, n := conn.RTTStats()
			res.rttSamples = n - rtt0
		}
	}
	if res.problem == "" {
		res.problem = sink.verdict("bulk", sink.hdr)
	}
	if res.problem == "" {
		// A stall that outlasts the striped transfer makes the proxy finish
		// the body with one range request instead; that op is counted as a
		// stall, the Open item it shows, and its body is still checked.
		d := b.proxy.Stats().Snapshot().Striped - striped0
		switch {
		case d == 0 && stalled(res.virt, stallLimit):
			res.unstriped = true
		case d != 1:
			res.problem = fmt.Sprintf("bulk: proxy recorded %d striped fetches, want 1", d)
		}
	}
	return res
}

// resolveRemote finds the page origin's SCION endpoint, as the proxy does.
func resolveRemote(ctx context.Context, b *bench) error {
	a, ok := b.detector.Detect(ctx, scionHost)
	if !ok {
		return fmt.Errorf("%s is not SCION-reachable", scionHost)
	}
	b.remote = addr.UDPAddr{Addr: a, Port: 80}
	return nil
}
