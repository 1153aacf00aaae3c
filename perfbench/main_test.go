package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"approxobj"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is emitted with its unit and
// that no correctness check failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerUnits))
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: w.Name, seed: 1, seconds: 0.5, trace: trace, out: out}, devnull)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d checks failed (error_rate must be 0)", w.Name, trace, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s in %s, want %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestRecorderError checks the latency recorder's relative error bound.
func TestRecorderError(t *testing.T) {
	for v := uint64(1); v < 1<<40; v = v*3/2 + 1 {
		var r recorder
		r.add(time.Duration(v))
		got := r.quantile(0.5)
		if err := (got - float64(v)) / float64(v); err > 0.01 || err < -0.01 {
			t.Fatalf("value %d reported as %g (relative error %.4f)", v, got, err)
		}
	}
}

// TestPooledOpAllocations pins the allocations of the benchmark's pooled
// ops, getter included, at those of the same calls written directly, so
// allocs_per_op counts the library's allocations, not the harness's.
func TestPooledOpAllocations(t *testing.T) {
	b, err := newBench("ingest", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.build(nil); err != nil {
		t.Fatal(err)
	}
	defer b.reg.Close()
	w := b.newWorker(0, nil, time.Second)
	w.t0 = now()
	reg := b.reg
	var x uint64
	scan := make([]uint64, procs)
	for k := range numKinds {
		// The direct calls go to the kind's first object, the benchmark's
		// ops (whose reads are checked against its tallies) to the second.
		var js []int
		for j, s := range b.specs {
			if s.kind == k {
				js = append(js, j)
			}
		}
		o, j := b.objs[js[0]], js[1]
		name, opts := o.spec.name, o.opts
		var write, read func()
		switch k {
		case kCounter:
			write = func() {
				c, _ := reg.Counter(name, opts...)
				c.Do(func(h approxobj.CounterHandle) { h.Inc() })
			}
			read = func() { o.c.Do(func(h approxobj.CounterHandle) { x = h.Read() }) }
		case kMaxReg:
			write = func() {
				m, _ := reg.MaxRegister(name, opts...)
				m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(1) })
			}
			read = func() { o.m.Do(func(h approxobj.MaxRegisterHandle) { x = h.Read() }) }
		case kSnapshot:
			write = func() {
				s, _ := reg.SnapshotObject(name, opts...)
				s.Do(func(h approxobj.SnapshotHandle) { x++; h.Update(x) })
			}
			read = func() { o.s.Do(func(h approxobj.SnapshotHandle) { scan = h.ScanInto(scan) }) }
		case kHist:
			write = func() {
				hg, _ := reg.HistogramObject(name, opts...)
				hg.Do(func(h approxobj.HistogramHandle) { h.Observe(b.table[1]) })
			}
			read = func() { o.h.Do(func(h approxobj.HistogramHandle) { x = h.Quantile(0.99) }) }
		}
		direct := testing.AllocsPerRun(200, write)
		got := testing.AllocsPerRun(200, func() { w.pooledWrite(j, 1, true) })
		if got != direct {
			t.Errorf("%s write: %v allocs per pooled op, %v per direct call", k, got, direct)
		}
		direct = testing.AllocsPerRun(200, read)
		got = testing.AllocsPerRun(200, func() { w.pooledRead(j) })
		if got != direct {
			t.Errorf("%s read: %v allocs per pooled op, %v per direct call", k, got, direct)
		}
	}
	if w.ck.failed != 0 {
		t.Errorf("%d read checks failed", w.ck.failed)
	}
}
