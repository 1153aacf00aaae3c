// Command perfbench is the repository's benchmark. It drives the library
// from one process with two closed-loop load goroutines on one of three
// workloads (ingest, dashboard, scrape), checks every output it can
// against exact tallies of what it wrote, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same seed twice — untraced, then with spans
// at every layer boundary and a telemetry domain attached — and then
// replays the op stream against each layer on its own (the ladder), and
// reports the per-layer metrics. README.md lists the workloads, the
// metrics and which layer each metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"approxobj"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, dashboard or scrape")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span and ladder files of traced runs")
	flag.Parse()
	cfg.trace = trace == 1
	if (trace != 0 && trace != 1) || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result, writing the
// run's self-description to desc.
func run(cfg config, desc *os.File) (*result, error) {
	b, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(desc, "# perfbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d go=%s commit=%s load_goroutines=%d closed_loop=true\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), procs)
	if cfg.trace {
		return runTraced(cfg, b, desc)
	}
	return runUntraced(cfg, b, desc)
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

const (
	setupSamples = 61   // setup_s is the median of this many samples
	setupWarmup  = 5    // untimed samples before them
	setupObjects = 1024 // objects a sample builds, in whole workloads
)

// setup returns the time one build of the workload takes and the live
// heap a build adds, and leaves b built for the run. A sample times
// enough builds for about setupObjects objects (4 builds of ingest or
// scrape, 256 of dashboard), and setup_s is the median sample ÷ its
// builds. Each build starts from a collected heap and is closed after,
// outside the timed part. The collector is off while a build is timed,
// so where a cycle would start does not move a sample; the allocations
// themselves are timed.
func setup(b *bench) (setupS, heapMB float64, err error) {
	builds := max(1, setupObjects/len(b.specs))
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var times []float64
	for s := range setupWarmup + setupSamples {
		var took int64
		for range builds {
			runtime.GC()
			t0 := now()
			if err := b.build(nil); err != nil {
				return 0, 0, err
			}
			took += now() - t0
			b.reg.Close()
			b.reg, b.objs, b.bounds, b.held = nil, nil, nil, [procs]heldHandles{}
		}
		if s >= setupWarmup {
			times = append(times, time.Duration(took).Seconds()/float64(builds))
		}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	if err := b.build(nil); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return median(times), (float64(ms.HeapAlloc) - float64(heap0)) / 1e6, nil
}

// verify runs the post-run checks on b and totals the run's correctness.
func verify(b *bench, res *runResult) (attempted, failed uint64) {
	var ck checker
	b.checkQuiescent(&ck)
	attempted, failed = ck.attempted, ck.failed
	for _, w := range res.workers {
		attempted += w.ops + w.sc.n
		failed += w.ck.failed
	}
	return attempted, failed
}

func checkedScrapes(res *runResult) uint64 {
	var n uint64
	for _, w := range res.workers {
		n += w.checked
	}
	return n
}

func merged(res *runResult) (wr, rd, sc recorder) {
	for _, w := range res.workers {
		wr.merge(&w.wr)
		rd.merge(&w.rd)
		sc.merge(&w.sc)
	}
	return wr, rd, sc
}

// windowed summarizes the run per window (see winLen): the medians over
// the run's full windows of throughput and of the write and read
// latency percentiles. A goroutine's share of a window's throughput is
// its ops over the window's time less its side scrapes. A run shorter
// than one window is summarized whole.
func windowed(res *runResult) (opsPerS, w50, w99, r50, r99 float64, windows int) {
	full := int(int64(res.elapsed) / winLen)
	if full == 0 {
		wr, rd, _ := merged(res)
		return float64(res.userOps()) / res.elapsed.Seconds(), wr.quantile(0.5), wr.quantile(0.99), rd.quantile(0.5), rd.quantile(0.99), 0
	}
	var ops, wp50, wp99, rp50, rp99 []float64
	for i := range full {
		var rate float64
		var wr, rd recorder
		for _, w := range res.workers {
			win := &w.win[i]
			if busy := winLen - win.sideNs; busy > 0 {
				rate += float64(win.ops) / time.Duration(busy).Seconds()
			}
			wr.merge(&win.wr)
			rd.merge(&win.rd)
		}
		ops = append(ops, rate)
		if wr.n > 0 {
			wp50, wp99 = append(wp50, wr.quantile(0.5)), append(wp99, wr.quantile(0.99))
		}
		if rd.n > 0 {
			rp50, rp99 = append(rp50, rd.quantile(0.5)), append(rp99, rd.quantile(0.99))
		}
	}
	return median(ops), median(wp50), median(wp99), median(rp50), median(rp99), full
}

func runUntraced(cfg config, b *bench, desc *os.File) (*result, error) {
	setupS, heapMB, err := setup(b)
	if err != nil {
		return nil, err
	}
	res, err := b.run(time.Duration(cfg.seconds*float64(time.Second)), [procs]*tracer{})
	if err != nil {
		return nil, err
	}
	steps := b.steps()
	attempted, failed := verify(b, res)
	b.reg.Close()
	wr, rd, sc := merged(res)
	ops := float64(res.userOps())
	opsPerS, w50, w99, r50, r99, windows := windowed(res)
	fmt.Fprintf(desc, "# samples write=%d read=%d scrape=%d setup=%d run_s=%.3f windows=%d\n", wr.n, rd.n, sc.n, setupSamples, res.elapsed.Seconds(), windows)
	for _, w := range res.workers {
		if w.log != nil {
			fmt.Fprintf(desc, "# goroutine %d side scrapes: %d, %.2f%% of its time, left out of ops_per_s\n", w.id, w.sc.n, 100*float64(w.sideNs)/float64(w.end-w.t0))
		}
	}
	fmt.Fprintf(desc, "# allocs: %d in the timed phase, %.0f of them checking %d scrapes (left out of allocs_per_op)\n", res.mallocs, res.checkMallocs, checkedScrapes(res))
	fmt.Fprintf(desc, "# whole-run ops_per_s=%.0f write_p50_ns=%.0f write_p99_ns=%.0f read_p50_ns=%.0f read_p99_ns=%.0f\n",
		ops/res.elapsed.Seconds(), wr.quantile(0.5), wr.quantile(0.99), rd.quantile(0.5), rd.quantile(0.99))
	// scrape_p99_ms is printed, not reported as a metric: it rests on a
	// run's two or three slowest scrapes, and across ten seeds on a 2-CPU
	// VM its spread was too wide to gate with a 0.25 regression bound.
	fmt.Fprintf(desc, "# ungated scrape_p99_ms=%.4f\n", sc.quantile(0.99)/1e6)
	lo, hi := sc.medianInterval()
	fmt.Fprintf(desc, "# scrape_p50_ms=%.4f, 95%% interval of the median [%.4f, %.4f] from %d scrapes\n", sc.quantile(0.5)/1e6, lo/1e6, hi/1e6, sc.n)
	fmt.Fprintf(desc, "# error_rate=%g (%d failed of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {opsPerS, "ops/s"},
		"write_p50_ns":  {w50, "ns"},
		"write_p99_ns":  {w99, "ns"},
		"read_p50_ns":   {r50, "ns"},
		"read_p99_ns":   {r99, "ns"},
		"scrape_p50_ms": {sc.quantile(0.5) / 1e6, "ms"},
		"steps_per_op":  {float64(steps) / ops, "steps"},
		"allocs_per_op": {(float64(res.mallocs) - res.checkMallocs) / ops, "allocs"},
		"heap_mb":       {heapMB, "MB"},
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func runTraced(cfg config, b *bench, desc *os.File) (*result, error) {
	secs := time.Duration(cfg.seconds * float64(time.Second))

	// Untraced reference for the tracing overhead.
	if err := b.build(nil); err != nil {
		return nil, err
	}
	res0, err := b.run(secs/4, [procs]*tracer{})
	if err != nil {
		return nil, err
	}
	attempted, failed := verify(b, res0)
	b.reg.Close()

	// The traced run: same seed, spans at every boundary, telemetry on.
	tb, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	tel := approxobj.NewTelemetry()
	meters := approxobj.NewRegistry()
	if err := meters.SelfMetrics(tel); err != nil {
		return nil, err
	}
	if err := tb.build(tel); err != nil {
		return nil, err
	}
	base := now()
	tracers := [procs]*tracer{newTracer(base), newTracer(base)}
	res1, err := tb.run(secs*3/8, tracers)
	if err != nil {
		return nil, err
	}
	counts := map[string]uint64{}
	for _, s := range meters.Snapshot() {
		counts[s.Name] = s.Value
	}
	a, f := verify(tb, res1)
	attempted, failed = attempted+a, failed+f
	defer tb.reg.Close()
	if err := writeSpans(filepath.Join(cfg.out, "spans-"+cfg.workload+".jsonl"), tracers[:]); err != nil {
		return nil, err
	}

	// The ladder, against the traced run's registry for its top rungs
	// (after the checks: its rungs write to the registry's objects).
	l := newLadder(tb)
	lm, err := l.run()
	if err != nil {
		return nil, err
	}
	if err := writeLadder(filepath.Join(cfg.out, "ladder-"+cfg.workload+".txt"), cfg.workload, l.cells); err != nil {
		return nil, err
	}

	// Where the traced run crossed a boundary itself, its spans' median
	// self time replaces the ladder's replay.
	var self [numSpans]recorder
	for _, t := range tracers {
		for i := range self {
			self[i].merge(&t.self[i])
		}
	}
	spanMed := func(s spanName) (float64, bool) {
		return self[s].quantile(0.5), self[s].n >= 100
	}
	override := func(metric string, s spanName) {
		if v, ok := spanMed(s); ok {
			lm[metric] = v
		}
	}
	override("registry.get_ns", spGetter)
	override("pool.acquire_ns", spAcquire)
	override("pool.release_ns", spRelease)
	for k := range numKinds {
		override("handle.write_ns."+k.String(), spWrite+spanName(k))
		override("handle.read_ns."+k.String(), spRead+spanName(k))
	}
	if snap, ok := spanMed(spSnapshot); ok {
		render, _ := spanMed(spRender)
		objects := float64(len(tb.objs))
		lm["registry.snapshot_ns_per_object"] = snap / objects
		lm["expose.render_ns_per_object"] = (render - snap) / objects
	}

	wr, _, _ := merged(res1)
	writes := float64(max(wr.n, 1))
	hits, misses := float64(counts["approx_runtime_readcache_hits"]), float64(counts["approx_runtime_readcache_misses"])
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	ops0 := float64(res0.userOps()) / res0.elapsed.Seconds()
	ops1 := float64(res1.userOps()) / res1.elapsed.Seconds()

	m := map[string]metric{}
	for name, unit := range perLayerUnits {
		if v, ok := lm[name]; ok {
			m[name] = metric{v, unit}
		}
	}
	m["shard.flushes_per_write"] = metric{float64(counts["approx_runtime_flushes"]) / writes, "ratio"}
	m["readcache.hit_ratio"] = metric{hitRatio, "ratio"}
	m["readcache.refresh_ns_peak"] = metric{float64(counts["approx_runtime_refresh_ns_peak"]), "ns"}
	m["window.rotations"] = metric{float64(counts["approx_runtime_window_rotations"]), "count"}
	m["window.rehomes_per_write"] = metric{float64(counts["approx_runtime_rehomed_handles"]) / writes, "ratio"}
	m["runtime.gc_per_s"] = metric{float64(res1.gcs) / res1.elapsed.Seconds(), "1/s"}
	m["bench.clock_ns"] = metric{clockCost(), "ns"}
	m["bench.trace_overhead"] = metric{ops1 / ops0, "ratio"}

	fmt.Fprintf(desc, "# samples untraced_ops=%d traced_ops=%d spans=%d ladder_cells=%d ladder_batches=%d\n",
		res0.userOps(), res1.userOps(), tracers[0].n+tracers[1].n, len(l.cells), ladderSamples)
	fmt.Fprint(desc, "# span self time, median ns (samples):")
	for sp := range numSpans {
		if self[sp].n > 0 {
			fmt.Fprintf(desc, " %s=%.0f(%d)", sp, self[sp].quantile(0.5), self[sp].n)
		}
	}
	fmt.Fprintln(desc)
	fmt.Fprintf(desc, "# error_rate=%g (%d failed of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for name := range perLayerUnits {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", name)
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// perLayerUnits lists every per-layer metric with its unit.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"registry.get_ns":                 "ns",
		"registry.get_allocs":             "allocs",
		"registry.snapshot_ns_per_object": "ns",
		"pool.acquire_ns":                 "ns",
		"pool.release_ns":                 "ns",
		"pool.allocs_per_lease":           "allocs",
		"shard.flush_ns":                  "ns",
		"shard.flushes_per_write":         "ratio",
		"readcache.read_ns":               "ns",
		"readcache.hit_ratio":             "ratio",
		"readcache.refresh_ns_peak":       "ns",
		"window.read_ns":                  "ns",
		"window.rotations":                "count",
		"window.rehomes_per_write":        "ratio",
		"histogram.query_ns":              "ns",
		"prim.write_ns":                   "ns",
		"prim.read_ns":                    "ns",
		"prim.atomic_floor_ns":            "ns",
		"expose.render_ns_per_object":     "ns",
		"expose.bytes_per_object":         "bytes",
		"runtime.gc_per_s":                "1/s",
		"bench.clock_ns":                  "ns",
		"bench.trace_overhead":            "ratio",
	}
	for k := range numKinds {
		n := k.String()
		u["handle.write_ns."+n] = "ns"
		u["handle.read_ns."+n] = "ns"
		u["shard.write_ns."+n] = "ns"
		u["shard.read_ns."+n] = "ns"
		u["backend.write_ns."+n] = "ns"
		u["backend.read_ns."+n] = "ns"
		u["backend.steps_per_write."+n] = "steps"
		u["backend.steps_per_read."+n] = "steps"
	}
	return u
}()
