package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/experiments"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// Prototype overhead calibration of every experiment client: the per-request
// WebExtensions interception and prototype proxy costs that experiments
// applies to World.NewClient clients (the constants are unexported there).
const (
	interceptCost   = 1 * time.Millisecond
	interceptJitter = 300 * time.Microsecond
	proxyCost       = 6500 * time.Microsecond
	proxyJitter     = 1500 * time.Microsecond
)

// Demo site content, as experiments.Demo builds it for www.scion.example.
const (
	scionHost     = "www.scion.example"
	pageURL       = "http://" + scionHost + "/index.html"
	pageTitle     = "scion-native"
	pageResources = 12
	resourceSize  = 4 << 10
	// benchProxyAddr is the benchmark client's proxy listener on the demo
	// client machine; World.NewClient numbers its own from 3129.
	benchProxyAddr = "client:3300"
)

// resourceURL is the i-th subresource of the demo page.
func resourceURL(i int) string {
	return fmt.Sprintf("http://%s/static/res-%d", scionHost, i)
}

// expectedBodies maps each request path of the demo page to the body the
// origin serves for it.
func expectedBodies() map[string][]byte {
	urls := make([]string, pageResources)
	out := make(map[string][]byte, pageResources+1)
	for i := range urls {
		urls[i] = resourceURL(i)
		body := make([]byte, resourceSize)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		out[fmt.Sprintf("/static/res-%d", i)] = body
	}
	out["/index.html"] = []byte(webserver.BuildPage(pageTitle, urls))
	return out
}

// bigBody is the demo sites' BigResourcePath content.
func bigBody() []byte {
	b := make([]byte, experiments.BigResourceSize)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// bench is the benchmark's view of one demo world: the world itself and a
// client assembled like World.NewClient, except that the proxy is served to
// the browser through a tap that checks and times every proxied response.
type bench struct {
	world    *experiments.World
	proxy    *proxy.Proxy
	ext      *browser.Extension
	browser  *browser.Browser
	detector *sciondetect.Detector
	tap      *tap
	bulkSink *bulkSink
	// remote is the page origin's SCION endpoint.
	remote addr.UDPAddr
	// warmupFailures are the failed checks of set-up's warm-up ops.
	warmupFailures []string
}

// newBench assembles the demo world and the benchmark client.
func newBench(seed int64) (*bench, error) {
	w, _, err := experiments.Demo(seed)
	if err != nil {
		return nil, fmt.Errorf("demo world: %w", err)
	}
	const legacyName = "client" // the demo's client machine and its routes
	resolver := w.Resolver(legacyName)
	detector := sciondetect.NewDetector(resolver, w.Clock)
	store := sciondetect.NewStrictStore(w.Clock)
	proxyDelay := experiments.NewSerialDelay(w.Clock, proxyCost, proxyJitter, seed+seed*7919+101)
	p := proxy.New(proxy.Config{
		Host:       w.PANHost(topology.AS111, "10.0.0.1"),
		Legacy:     w.Legacy,
		LegacyHost: legacyName,
		Resolver:   resolver,
		Detector:   detector,
		Processing: proxyDelay.Wait,
	})
	t := &tap{next: p, expect: expectedBodies()}
	if _, err := webserver.ServeIP(w.Legacy, benchProxyAddr, t); err != nil {
		w.Close()
		return nil, fmt.Errorf("serving proxy: %w", err)
	}
	ext := browser.NewExtension(p, store)
	interceptDelay := experiments.NewSerialDelay(w.Clock, interceptCost, interceptJitter, seed+seed*7919+202)
	br := browser.New(browser.Config{
		Clock:      w.Clock,
		Legacy:     w.Legacy,
		LegacyHost: legacyName,
		Resolver:   resolver,
		Extension:  ext,
		ProxyAddr:  benchProxyAddr,
		Intercept:  interceptDelay.Wait,
	})
	return &bench{
		world: w, proxy: p, ext: ext, browser: br, detector: detector, tap: t,
		bulkSink: newBulkSink(),
	}, nil
}

// tap serves the proxy to the browser. It checks every response on its way
// out against the origin's content and, while a tracer is installed, records
// a proxy.request span around each ServeHTTP call.
type tap struct {
	next   http.Handler
	expect map[string][]byte
	tracer atomic.Pointer[tracer]

	mu       sync.Mutex
	seen     int
	problems []string
}

// reset starts a new op's tally.
func (t *tap) reset() {
	t.mu.Lock()
	t.seen, t.problems = 0, t.problems[:0]
	t.mu.Unlock()
}

// result returns the responses seen since reset and the first problem.
func (t *tap) result() (seen int, problem string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.problems) > 0 {
		problem = t.problems[0]
	}
	return t.seen, problem
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tracer.Load()
	var sp *span
	if tr != nil {
		sp = tr.startChild("proxy.request")
	}
	cw := &checkWriter{ResponseWriter: w, bodyCheck: bodyCheck{want: t.expect[r.URL.Path]}}
	t.next.ServeHTTP(cw, r)
	if sp != nil {
		tr.end(sp)
	}
	problem := cw.verdict(r.URL.String(), w.Header())
	t.mu.Lock()
	t.seen++
	if problem != "" {
		t.problems = append(t.problems, problem)
	}
	t.mu.Unlock()
}

// bodyCheck compares a response, as it is written, with the expected one.
type bodyCheck struct {
	want   []byte // nil: no response is expected
	off    int
	status int
	bad    bool
}

func (c *bodyCheck) header(code int) {
	if c.status == 0 {
		c.status = code
	}
}

func (c *bodyCheck) check(p []byte) {
	c.header(http.StatusOK)
	if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
		c.bad = true
	}
	c.off += len(p)
}

// verdict describes what is wrong with the response, or "" if nothing is.
func (c *bodyCheck) verdict(what string, hdr http.Header) string {
	switch {
	case c.status != http.StatusOK:
		return fmt.Sprintf("%s: status %d", what, c.status)
	case c.want == nil || c.bad || c.off != len(c.want):
		return fmt.Sprintf("%s: body differs from the origin's (%d bytes, want %d)", what, c.off, len(c.want))
	case hdr.Get(proxy.HeaderVia) != string(proxy.ViaSCION):
		return fmt.Sprintf("%s: via %q, want scion", what, hdr.Get(proxy.HeaderVia))
	}
	return ""
}

// checkWriter passes a response through to the browser while checking it.
type checkWriter struct {
	http.ResponseWriter
	bodyCheck
}

func (c *checkWriter) WriteHeader(code int) {
	c.header(code)
	c.ResponseWriter.WriteHeader(code)
}

func (c *checkWriter) Write(p []byte) (int, error) {
	c.check(p)
	return c.ResponseWriter.Write(p)
}

// ReadFrom keeps the server's pooled copy buffer in use (io.Copy would
// otherwise allocate one per response) while still checking every byte.
func (c *checkWriter) ReadFrom(src io.Reader) (int64, error) {
	c.header(http.StatusOK)
	if rf, ok := c.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(checkReader{&c.bodyCheck, src})
	}
	return io.Copy(struct{ io.Writer }{c}, src)
}

type checkReader struct {
	c   *bodyCheck
	src io.Reader
}

func (r checkReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.c.check(p[:n])
	return n, err
}

// bulkSink is the ResponseWriter of a bulk fetch: it checks the body
// against the big resource and discards it, reusing one read buffer.
type bulkSink struct {
	bodyCheck
	hdr http.Header
	buf []byte
}

func newBulkSink() *bulkSink {
	return &bulkSink{bodyCheck: bodyCheck{want: bigBody()}, buf: make([]byte, 32<<10)}
}

func (s *bulkSink) reset() {
	s.bodyCheck = bodyCheck{want: s.want}
	s.hdr = http.Header{}
}

func (s *bulkSink) Header() http.Header { return s.hdr }

func (s *bulkSink) WriteHeader(code int) { s.header(code) }

func (s *bulkSink) Write(p []byte) (int, error) {
	s.check(p)
	return len(p), nil
}

func (s *bulkSink) ReadFrom(src io.Reader) (int64, error) {
	return io.CopyBuffer(struct{ io.Writer }{s}, src, s.buf)
}
