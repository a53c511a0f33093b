// Command perfbench is the repository's end-to-end benchmark. It drives the
// demo world (experiments.Demo) from one process as a closed loop with one
// operation in flight, checks every output, and prints the metrics named in
// BENCHMARK.json. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench --workload page-warm --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a traced run, with the span tree, the CPU profile folded by
// module and the tracing overhead. The last line of standard output is the
// JSON result. --workload all runs every workload in turn and prints their
// metrics in one table.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run assembles a world to
// measure set-up time: once in the measuring process and the rest in
// child processes, so no extra world lives alongside the measured one.
const setupRepeats = 7

// warmupOps run inside set-up: the first op dials and fills every cache.
const warmupOps = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload: page-warm, page-redial, bulk-striped, page-telemetry, or all")
		seed      = flag.Int64("seed", 1, "seed of the demo world and the client's jitter")
		seconds   = flag.Float64("seconds", 20, "measured seconds")
		trace     = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		setupOnly = flag.Bool("setup-only", false, "assemble one world, print its set-up time and exit")
	)
	flag.Parse()
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *setupOnly {
		_, setup, err := setUp(wl, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("setup_s %v\n", setup.Seconds())
		return
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		err = runTraced(wl, *seed, dur)
	} else {
		err = runUntraced(wl, *seed, dur)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setUp assembles the world and client and runs the warm-up ops, timing it
// all on the wall clock after a GC. Warm-up ops are checked like measured
// ones; their failures are returned with the bench.
func setUp(wl workload, seed int64) (*bench, time.Duration, error) {
	runtime.GC()
	start := wallNow()
	b, err := newBench(seed)
	if err != nil {
		return nil, 0, err
	}
	if wl.prepare != nil {
		wl.prepare(b)
	}
	ctx := context.Background()
	if err := resolveRemote(ctx, b); err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmupOps; i++ {
		if r := wl.op(ctx, b, nil); r.problem != "" {
			b.warmupFailures = append(b.warmupFailures, r.problem)
		}
	}
	return b, wallSince(start), nil
}

// childSetups measures set-up time in n child processes, one after another.
func childSetups(wl workload, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		f := strings.Fields(string(b))
		if len(f) != 2 || f[0] != "setup_s" {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// phase is one closed-loop measurement.
type phase struct {
	ops      []opResult
	failures []string
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	steal    float64
	stealOK  bool
}

// minOps is the op count a measured phase extends to, up to twice its
// duration, so that its p90 rests on at least ten samples beyond it even on
// a slow host.
const minOps = 120

// measure runs ops back to back for dur, or longer while fewer than minOps
// ops are done and until 2*dur has passed.
func measure(wl workload, b *bench, tr *tracer, dur time.Duration) phase {
	var ph phase
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	st0, stErr := readProcStat()
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := wallNow()
	for el := time.Duration(0); el < dur || (len(ph.ops) < minOps && el < 2*dur); el = wallSince(start) {
		r := wl.op(ctx, b, tr)
		ph.ops = append(ph.ops, r)
		if r.problem != "" {
			ph.failures = append(ph.failures, fmt.Sprintf("op %d (%.1f virtual ms): %s", len(ph.ops), ms(r.virt), r.problem))
		}
	}
	ph.wall = wallSince(start)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	if st1, err := readProcStat(); err == nil && stErr == nil {
		ph.steal, ph.stealOK = stealShare(st0, st1), true
	}
	return ph
}

// wallNow and wallSince read the wall clock. The benchmark measures what a
// user waits for and what the host spends, beside the virtual time the
// program reports.
func wallNow() time.Time { return time.Now() } //lint:allow-wallclock the benchmark measures wall time

func wallSince(t time.Time) time.Duration { return time.Since(t) } //lint:allow-wallclock the benchmark measures wall time

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProcStat() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// heapLiveMiB is the live heap after two forced collections: one GC leaves
// objects freed by finalizers and sync.Pool victims for the next.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values in print order.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) add(name string, v float64, unit string) {
	ms.names = append(ms.names, name)
	ms.m[name] = metric{Value: v, Unit: unit}
}

func (ms *metrics) print() {
	for _, n := range ms.names {
		fmt.Printf("  %-32s %14.6g %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
}

// emit prints the JSON result line.
func emit(attempted, failed int, ms *metrics) error {
	line, err := json.Marshal(result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms.m,
	})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// printEnv records what the numbers depend on beside them.
func printEnv(wl workload, seed int64, ph phase) {
	steal := "n/a"
	if ph.stealOK {
		steal = strconv.FormatFloat(ph.steal, 'f', 4, 64)
	}
	fmt.Printf("env: workload=%s seed=%d gomaxprocs=%d nproc=%d go=%s steal_share=%s\n",
		wl.name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), steal)
}

// reportFailures prints every failed check.
func reportFailures(failures []string) {
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(failures)-i)
			break
		}
		fmt.Printf("  FAIL %s\n", f)
	}
}

// opStats summarises a phase's ops.
type opStats struct {
	n                int
	wallP50, wallP90 float64
	virtP50, virtP90 float64
	stalls, failed   int
	unstriped        int
	virtOK, wallOK   bool
	virtP90OK        bool
	stallShare       float64
	okWithinLimit    float64
	opsPerSec        float64
	cpuMSPerOp       float64
	allocsPerOp      float64
}

func summarize(ph phase) opStats {
	s := opStats{n: len(ph.ops), failed: len(ph.failures)}
	walls := make([]float64, 0, s.n)
	virts := make([]float64, 0, s.n)
	okFast := 0
	for _, r := range ph.ops {
		walls = append(walls, ms(r.wall))
		virts = append(virts, ms(r.virt))
		if r.problem == "" && !stalled(r.virt, stallLimit) {
			okFast++
		}
		if r.unstriped {
			s.unstriped++
		}
	}
	var ok50, ok90 bool
	s.wallP50, ok50 = percentile(append([]float64(nil), walls...), 0.5)
	s.wallP90, ok90 = percentile(walls, 0.9)
	s.wallOK = ok50 && ok90
	s.virtP90, s.virtP90OK = percentile(append([]float64(nil), virts...), 0.9)
	within, stalls := splitStalls(virts, stallLimit)
	s.stalls = stalls
	s.virtP50, s.virtOK = percentile(within, 0.5)
	if s.n > 0 {
		s.stallShare = float64(stalls) / float64(s.n)
		s.okWithinLimit = float64(okFast) / float64(s.n)
		s.cpuMSPerOp = ms(ph.cpu) / float64(s.n)
		s.allocsPerOp = float64(ph.mallocs) / float64(s.n)
	}
	s.opsPerSec = float64(s.n-s.failed) / ph.wall.Seconds()
	return s
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl workload, seed int64, dur time.Duration) error {
	setups, err := childSetups(wl, seed, setupRepeats-1)
	if err != nil {
		return err
	}
	b, setup, err := setUp(wl, seed)
	if err != nil {
		return err
	}
	setups = append(setups, setup.Seconds())
	ph := measure(wl, b, nil, dur)
	heap := heapLiveMiB()
	s := summarize(ph)
	printEnv(wl, seed, ph)
	fmt.Printf("set-up runs (s): %v\n", setups)
	reportFailures(append(b.warmupFailures, ph.failures...))
	if !s.wallOK || !s.virtOK {
		return fmt.Errorf("%d ops (%d within the stall limit) are too few for the reported percentiles; raise --seconds", s.n, s.n-s.stalls)
	}
	attempted, failed := warmupOps+s.n, len(b.warmupFailures)+s.failed
	out := newMetrics()
	out.add("ops_per_s", s.opsPerSec, "1/s")
	out.add("op_wall_ms_p50", s.wallP50, "ms")
	out.add("op_wall_ms_p90", s.wallP90, "ms")
	out.add("cpu_ms_per_op", s.cpuMSPerOp, "ms")
	out.add("allocs_per_op", s.allocsPerOp, "count")
	out.add("heap_live_MiB", heap, "MiB")
	out.add("virt_ms_p50", s.virtP50, "virt_ms")
	out.add("ok_within_5s_share", s.okWithinLimit, "share")
	out.add("setup_s", median(setups), "s")
	fmt.Printf("end-to-end metrics, %s, %d measured ops:\n", wl.name, s.n)
	out.print()
	fmt.Printf("  %-32s %14.6g share  (%d ops over %v virtual, %d of them served unstriped; not gated: zero on healthy workloads)\n",
		"stall_share", s.stallShare, s.stalls, stallLimit, s.unstriped)
	fmt.Printf("  %-32s %14.6g share  (%d of %d attempted, warm-up included)\n", "fail_share", float64(failed)/float64(attempted), failed, attempted)
	return emit(attempted, failed, out)
}

// runTraced measures the per-layer metrics: an untraced half as the
// baseline for the tracing overhead, then a traced half with spans, layer
// counters and a CPU profile.
func runTraced(wl workload, seed int64, dur time.Duration) error {
	b, _, err := setUp(wl, seed)
	if err != nil {
		return err
	}
	basePh := measure(wl, b, nil, dur/2)
	base := summarize(basePh)

	tr := newTracer(b.world.Clock, wl.name)
	b.tap.tracer.Store(tr)
	c0 := readCounters(b)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	ph := measure(wl, b, tr, dur-dur/2)
	pprof.StopCPUProfile()
	b.tap.tracer.Store(nil)
	c1 := readCounters(b)
	s := summarize(ph)
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	cpu := attribute(samples)

	printEnv(wl, seed, ph)
	reportFailures(append(append(b.warmupFailures, basePh.failures...), ph.failures...))
	printTree(os.Stdout, aggregate(tr.snapshot()), s.n)
	out := layerMetrics(b, ph, s, tr.snapshot(), c0, c1, cpu)
	sum := 0.0
	for _, v := range cpu.shares {
		sum += v
	}
	fmt.Printf("cpu by module (%d profile samples, innermost tango/internal frame, else runtime):\n", cpu.samples)
	for _, mod := range sortedModules(cpu.shares) {
		fmt.Printf("  %-12s %.4f\n", mod, cpu.shares[mod])
	}
	check := "ok"
	if sum < 1-1e-9 || sum > 1+1e-9 {
		check = "MISMATCH"
	}
	fmt.Printf("  sum          %.12f %s\n", sum, check)
	overhead := base.opsPerSec/s.opsPerSec - 1
	fmt.Printf("tracing overhead: %.1f ops/s untraced vs %.1f traced (wall per op %+.1f%%); cpu/op %.3f vs %.3f ms\n",
		base.opsPerSec, s.opsPerSec, 100*overhead, base.cpuMSPerOp, s.cpuMSPerOp)
	if check != "ok" {
		return fmt.Errorf("module cpu shares sum to %v, want 1", sum)
	}
	fmt.Printf("per-layer metrics, %s, %d traced ops:\n", wl.name, s.n)
	out.print()
	attempted := warmupOps + base.n + s.n
	failed := len(b.warmupFailures) + base.failed + s.failed
	return emit(attempted, failed, out)
}

// runAll runs every workload in turn, each in a child process with the
// same flags, and prints their metrics side by side. It is for people; the
// per-workload runs are what a harness calls.
func runAll(seed int64, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	results := make([]result, len(workloads))
	failed := false
	for i, wl := range workloads {
		fmt.Printf("== %s\n", wl.name)
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil {
			return fmt.Errorf("%s: reading result: %w", wl.name, err)
		}
		failed = failed || !results[i].Correct
	}
	names := make([]string, 0, len(results[0].Metrics))
	for n := range results[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-34s", "metric")
	for _, wl := range workloads {
		fmt.Printf(" %15s", wl.name)
	}
	fmt.Println(" unit")
	for _, n := range names {
		fmt.Printf("%-34s", n)
		for _, r := range results {
			fmt.Printf(" %15.6g", r.Metrics[n].Value)
		}
		fmt.Printf(" %s\n", results[0].Metrics[n].Unit)
	}
	fmt.Printf("%-34s", "attempted/failed")
	for _, r := range results {
		fmt.Printf(" %15s", fmt.Sprintf("%d/%d", r.Attempted, r.Failed))
	}
	fmt.Println()
	if failed {
		return fmt.Errorf("some outputs failed their checks")
	}
	return nil
}
