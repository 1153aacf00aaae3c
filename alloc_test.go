package approxobj_test

import (
	"testing"
	"time"

	"approxobj"
)

// The zero-allocation read path is a designed property of the plane
// (PR 9), not an accident of the current compiler: cached scalar reads
// are one atomic load, uncached scalar reads fold the shards in
// registers, and the vector kinds reuse handle-local scratch. These
// tests gate it exactly with testing.AllocsPerRun, machine-
// independently — the E20r bench records the same numbers into the
// -json trajectory, but a unit test fails faster and under -race too.
//
// The cached cells use an hour of staleness so the combiner goroutine
// never refreshes mid-measurement (the warm-up read pays the one
// inline refresh); allocations by OTHER goroutines would otherwise
// land in the per-run count.

// requireZeroAllocs runs f through testing.AllocsPerRun and fails if
// any run allocated.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per call, want 0", name, avg)
	}
}

func TestReadPathAllocationFree(t *testing.T) {
	const shards = 4
	for _, cached := range []bool{false, true} {
		label := "uncached"
		opts := []approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(shards)}
		if cached {
			label = "cached"
			opts = append(opts, approxobj.WithReadCache(time.Hour))
		}

		t.Run("counter/"+label, func(t *testing.T) {
			c, err := approxobj.NewCounter(append(opts, approxobj.WithAccuracy(approxobj.Multiplicative(2)))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w, r := c.Handle(0), c.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Inc()
			}
			var sink uint64
			sink += r.Read() // warm-up: cached cells refresh inline once
			requireZeroAllocs(t, "counter Read", func() { sink += r.Read() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})

		t.Run("max-register/"+label, func(t *testing.T) {
			m, err := approxobj.NewMaxRegister(append(opts, approxobj.WithBound(1<<20))...)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			w, r := m.Handle(0), m.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Write(uint64(i))
			}
			var sink uint64
			sink += r.Read()
			requireZeroAllocs(t, "max-register Read", func() { sink += r.Read() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})

		t.Run("snapshot/"+label, func(t *testing.T) {
			sn, err := approxobj.NewSnapshot(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Close()
			w, r := sn.Handle(0), sn.Handle(1)
			for i := 1; i <= 1000; i++ {
				w.Update(uint64(i))
			}
			var buf []uint64
			buf = r.ScanInto(buf) // warm-up grows the scratch once
			requireZeroAllocs(t, "snapshot ScanInto", func() { buf = r.ScanInto(buf) })
			if buf[0] != 1000 {
				t.Fatalf("component 0 = %d, want 1000", buf[0])
			}
		})

		t.Run("histogram/"+label, func(t *testing.T) {
			hg, err := approxobj.NewHistogram(append(opts,
				approxobj.WithAccuracy(approxobj.Multiplicative(2)),
				approxobj.WithBound(1<<16))...)
			if err != nil {
				t.Fatal(err)
			}
			defer hg.Close()
			w, r := hg.Handle(0), hg.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Observe(uint64(i))
			}
			var sink uint64
			sink += r.Quantile(0.99)
			requireZeroAllocs(t, "histogram Quantile", func() { sink += r.Quantile(0.99) })
			requireZeroAllocs(t, "histogram Count", func() { sink += r.Count() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})
	}
}

// TestTelemetryDisabledZeroCost pins the self-instrumentation
// contract (PR 10) exactly: an object built WITHOUT WithTelemetry pays
// nothing for the instrumentation points threaded through its runtime
// — zero allocations per write and per read, and step counts identical
// to an instrumented twin driven through the same operation sequence
// (telemetry counts events in its own striped atomics, never through
// the objects' base-object primitives). The instrumented twin's hot
// paths must stay allocation-free too: striped counter bumps and
// handle-local accumulators are arithmetic, not allocation.
func TestTelemetryDisabledZeroCost(t *testing.T) {
	const ops = 2000
	tel := approxobj.NewTelemetry()
	build := func(dom *approxobj.Telemetry) (*approxobj.Counter, *approxobj.Histogram) {
		opts := []approxobj.Option{
			approxobj.WithProcs(2),
			approxobj.WithAccuracy(approxobj.Multiplicative(2)),
			approxobj.WithShards(2),
			approxobj.WithBatch(4),
		}
		if dom != nil {
			opts = append(opts, approxobj.WithTelemetry(dom))
		}
		c, err := approxobj.NewCounter(opts...)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := approxobj.NewHistogram(append(opts, approxobj.WithBound(1<<12))...)
		if err != nil {
			t.Fatal(err)
		}
		return c, hg
	}
	plainC, plainH := build(nil)
	defer plainC.Close()
	defer plainH.Close()
	instrC, instrH := build(tel)
	defer instrC.Close()
	defer instrH.Close()

	// Identical sequences through slot 0 of each twin; reads through
	// slot 1.
	drive := func(c *approxobj.Counter, hg *approxobj.Histogram) (cw, cr approxobj.CounterHandle, hw, hr approxobj.HistogramHandle) {
		cw, cr = c.Handle(0), c.Handle(1)
		hw, hr = hg.Handle(0), hg.Handle(1)
		var sink uint64
		for i := 0; i < ops; i++ {
			cw.Inc()
			hw.Observe(uint64(i) % (1 << 12))
			if i%64 == 0 {
				sink += cr.Read()
				sink += hr.Quantile(0.5)
			}
		}
		if sink == ^uint64(0) {
			t.Fatal("impossible sink")
		}
		return cw, cr, hw, hr
	}
	pcw, pcr, phw, phr := drive(plainC, plainH)
	icw, icr, ihw, ihr := drive(instrC, instrH)

	// The step counts must be IDENTICAL, not merely close: telemetry is
	// invisible to the step-counting primitive layer.
	if pcw.Steps() != icw.Steps() || pcr.Steps() != icr.Steps() {
		t.Errorf("counter steps diverge with telemetry: writer %d vs %d, reader %d vs %d",
			pcw.Steps(), icw.Steps(), pcr.Steps(), icr.Steps())
	}
	if phw.Steps() != ihw.Steps() || phr.Steps() != ihr.Steps() {
		t.Errorf("histogram steps diverge with telemetry: writer %d vs %d, reader %d vs %d",
			phw.Steps(), ihw.Steps(), phr.Steps(), ihr.Steps())
	}

	var sink uint64
	requireZeroAllocs(t, "disabled counter Inc", func() { pcw.Inc() })
	requireZeroAllocs(t, "disabled counter Read", func() { sink += pcr.Read() })
	requireZeroAllocs(t, "disabled histogram Observe", func() { phw.Observe(7) })
	requireZeroAllocs(t, "disabled histogram Quantile", func() { sink += phr.Quantile(0.99) })
	requireZeroAllocs(t, "enabled counter Inc", func() { icw.Inc() })
	requireZeroAllocs(t, "enabled counter Read", func() { sink += icr.Read() })
	requireZeroAllocs(t, "enabled histogram Observe", func() { ihw.Observe(7) })
	requireZeroAllocs(t, "enabled histogram Quantile", func() { sink += ihr.Quantile(0.99) })
	if sink == ^uint64(0) {
		t.Fatal("impossible sink")
	}
}

// TestPooledAcquireAllocations pins the public acquisition path's
// allocation budget: after the first lease builds the slot's handle,
// each Acquire/release cycle allocates only the release closure that
// Acquire and TryAcquire must return (the idempotence guard rides the
// slot's generation counter, not a fresh escaping atomic). Do pays not
// even that; see TestPooledDoAllocationFree.
func TestPooledAcquireAllocations(t *testing.T) {
	c, err := approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Do(func(h approxobj.CounterHandle) { h.Inc() }) // warm the slot's cached handle
	if avg := testing.AllocsPerRun(100, func() {
		h, release := c.Acquire()
		h.Inc()
		release()
	}); avg > 1 {
		t.Errorf("acquire/release cycle: %.2f allocs, want <= 1 (the release closure)", avg)
	}
}

// TestPooledDoAllocationFree pins Do at zero allocations per call, with
// one mutation and with one read, for every kind: Do releases through a
// deferred method call, not through the closure Acquire returns. The
// mutations are ones whose backend write allocates nothing on a held
// handle either: a snapshot component write of a NEW value allocates
// in the backend's snapshot register (3 allocs at S=1, B=1, held handle
// or not), so the snapshot's Do rewrites one value, which still runs
// the whole acquire/flush/release cycle.
func TestPooledDoAllocationFree(t *testing.T) {
	opts := []approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(2), approxobj.WithBatch(4)}
	var sink uint64

	c, err := approxobj.NewCounter(append(opts, approxobj.WithAccuracy(approxobj.Multiplicative(2)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Do(func(h approxobj.CounterHandle) { h.Inc() }) // build the slot's handle
	requireZeroAllocs(t, "counter Do(Inc)", func() { c.Do(func(h approxobj.CounterHandle) { h.Inc() }) })
	requireZeroAllocs(t, "counter Do(Read)", func() { c.Do(func(h approxobj.CounterHandle) { sink += h.Read() }) })

	m, err := approxobj.NewMaxRegister(append(opts,
		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
		approxobj.WithBound(1<<20))...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var v uint64
	m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(v) })
	requireZeroAllocs(t, "max-register Do(Write)", func() {
		v++
		m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(v) })
	})
	requireZeroAllocs(t, "max-register Do(Read)", func() { m.Do(func(h approxobj.MaxRegisterHandle) { sink += h.Read() }) })

	sn, err := approxobj.NewSnapshot(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	var buf []uint64
	sn.Do(func(h approxobj.SnapshotHandle) { buf = h.ScanInto(buf) }) // grow the scan buffer once
	sn.Do(func(h approxobj.SnapshotHandle) { h.Update(7) })
	requireZeroAllocs(t, "snapshot Do(Update)", func() { sn.Do(func(h approxobj.SnapshotHandle) { h.Update(7) }) })
	requireZeroAllocs(t, "snapshot Do(ScanInto)", func() { sn.Do(func(h approxobj.SnapshotHandle) { buf = h.ScanInto(buf) }) })

	hg, err := approxobj.NewHistogram(append(opts,
		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
		approxobj.WithBound(1<<16))...)
	if err != nil {
		t.Fatal(err)
	}
	defer hg.Close()
	hg.Do(func(h approxobj.HistogramHandle) { sink += h.Quantile(0.99) })
	requireZeroAllocs(t, "histogram Do(Observe)", func() { hg.Do(func(h approxobj.HistogramHandle) { h.Observe(7) }) })
	requireZeroAllocs(t, "histogram Do(Quantile)", func() { hg.Do(func(h approxobj.HistogramHandle) { sink += h.Quantile(0.99) }) })
	if sink == ^uint64(0) {
		t.Fatal("impossible sink")
	}
}

// TestRegistryGetterAllocationFree pins the registry getters' hit path —
// a repeat call on an existing name with the same options — at zero
// allocations, for every kind, cumulative, cached and windowed: the
// lookup is a lock-free index read and the options apply to a pooled
// scratch spec.
func TestRegistryGetterAllocationFree(t *testing.T) {
	variants := []struct {
		label string
		opts  []approxobj.Option
	}{
		{"cumulative", nil},
		{"cached", []approxobj.Option{approxobj.WithReadCache(time.Hour)}},
		{"windowed", []approxobj.Option{approxobj.WithWindow(time.Hour, 2)}},
	}
	for _, v := range variants {
		t.Run(v.label, func(t *testing.T) {
			reg := approxobj.NewRegistry()
			defer reg.Close()
			base := append([]approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(2)}, v.opts...)
			counterOpts := append(base[:len(base):len(base)], approxobj.WithAccuracy(approxobj.Multiplicative(4)))
			maxRegOpts := append(base[:len(base):len(base)], approxobj.WithBound(1<<20))
			histOpts := append(base[:len(base):len(base)],
				approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(1<<16))

			c0, err := reg.Counter("c", counterOpts...)
			if err != nil {
				t.Fatal(err)
			}
			m0, err := reg.MaxRegister("m", maxRegOpts...)
			if err != nil {
				t.Fatal(err)
			}
			s0, err := reg.SnapshotObject("s", base...)
			if err != nil {
				t.Fatal(err)
			}
			h0, err := reg.HistogramObject("h", histOpts...)
			if err != nil {
				t.Fatal(err)
			}

			requireZeroAllocs(t, "Counter hit", func() {
				if c, err := reg.Counter("c", counterOpts...); err != nil || c != c0 {
					t.Fatalf("Counter hit: %p, %v; want %p", c, err, c0)
				}
			})
			requireZeroAllocs(t, "MaxRegister hit", func() {
				if m, err := reg.MaxRegister("m", maxRegOpts...); err != nil || m != m0 {
					t.Fatalf("MaxRegister hit: %p, %v; want %p", m, err, m0)
				}
			})
			requireZeroAllocs(t, "SnapshotObject hit", func() {
				if s, err := reg.SnapshotObject("s", base...); err != nil || s != s0 {
					t.Fatalf("SnapshotObject hit: %p, %v; want %p", s, err, s0)
				}
			})
			requireZeroAllocs(t, "HistogramObject hit", func() {
				if h, err := reg.HistogramObject("h", histOpts...); err != nil || h != h0 {
					t.Fatalf("HistogramObject hit: %p, %v; want %p", h, err, h0)
				}
			})
		})
	}
}
