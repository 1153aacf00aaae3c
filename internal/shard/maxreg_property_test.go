package shard_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"approxobj/internal/shard"
)

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runMaxEnvelopeCheck is the max-register counterpart of
// runEnvelopeCheck: writers goroutines drive a mix of monotone
// (ascending) and non-monotone (stale, already-dominated) writes against
// a sharded max register while one dedicated reader checks that EVERY
// observed read is a valid response for some true maximum inside the
// regularity window — between the writes completed before the read
// started (vmin) and those started before it returned (vmax), per
// Bounds.ContainsRange. Returns the true maximum for follow-up checks.
func runMaxEnvelopeCheck(t *testing.T, writers int, k uint64, perG int, opts ...shard.Option) {
	t.Helper()
	n := writers + 1 // slot n-1 is the reader
	m, err := shard.NewMaxReg(n, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	bounds := m.Bounds()

	var startedMax, completedMax atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(writers)
	handles := make([]*shard.MaxRegHandle, writers)
	for i := 0; i < writers; i++ {
		h := m.Handle(i)
		handles[i] = h
		id := uint64(i)
		go func() {
			defer wg.Done()
			for j := 1; j <= perG; j++ {
				// Writers interleave distinct ascending sequences so the
				// running maximum keeps moving...
				v := uint64(j)*uint64(writers) + id
				atomicMax(&startedMax, v)
				h.Write(v)
				atomicMax(&completedMax, v)
				if j%7 == 0 {
					// ...and every 7th op is a non-monotone write of an
					// already-dominated value, which must neither move the
					// maximum nor corrupt the elision state.
					h.Write(v / 2)
				}
			}
		}()
	}

	var checks uint64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rh := m.Handle(n - 1)
		check := func() {
			vmin := completedMax.Load()
			x := rh.Read()
			vmax := startedMax.Load()
			checks++
			if !bounds.ContainsRange(vmin, vmax, x) {
				t.Errorf("read %d outside envelope %+v for any max in [%d, %d]", x, bounds, vmin, vmax)
			}
		}
		for !done.Load() {
			check()
		}
		check() // one fully quiescent read
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if checks == 0 {
		t.Fatal("reader performed no checks")
	}
	// After flushing every writer handle the elision headroom disappears:
	// the combined read must obey the pure shard-composition envelope
	// (Buffer = 0) against the exact true maximum.
	for _, h := range handles {
		h.Flush()
	}
	trueMax := uint64(perG)*uint64(writers) + uint64(writers) - 1
	flushed := bounds
	flushed.Buffer = 0
	if x := m.Handle(n - 1).Read(); !flushed.Contains(trueMax, x) {
		t.Errorf("quiescent flushed read %d outside envelope %+v of true max %d", x, flushed, trueMax)
	}
}

// TestShardedMaxRegEnvelopeSweep sweeps (writers, shards, batch) across
// all four max-register backends, checking every concurrently observed
// read against the documented envelope. Note Bounds is identical for
// every shard count — sharding a max register widens nothing.
func TestShardedMaxRegEnvelopeSweep(t *testing.T) {
	perG := 4_000
	if testing.Short() {
		perG = 500
	}
	for _, writers := range []int{1, 3, 6} {
		for _, s := range []int{1, 2, 4} {
			for _, b := range []int{1, 7, 32} {
				// Bound above every written value (max perG*writers + writers - 1).
				bound := uint64(perG)*uint64(writers) + uint64(writers)
				common := []shard.Option{shard.Shards(s), shard.Batch(b)}
				runMaxEnvelopeCheck(t, writers, 1, perG,
					append(common, shard.WithBackend(shard.ExactMaxBackend()))...)
				runMaxEnvelopeCheck(t, writers, 1, perG,
					append(common, shard.WithBackend(shard.ExactBoundedMaxBackend(bound)))...)
				runMaxEnvelopeCheck(t, writers, 3, perG,
					append(common, shard.WithBackend(shard.MultMaxBackend()))...)
				runMaxEnvelopeCheck(t, writers, 3, perG,
					append(common, shard.WithBackend(shard.MultBoundedMaxBackend(bound)))...)
			}
		}
	}
}

// TestMaxRegShardingInvariance pins the composition claim directly:
// Bounds does not depend on the shard count, for any backend.
func TestMaxRegShardingInvariance(t *testing.T) {
	for _, be := range []shard.MaxRegBackend{
		shard.ExactMaxBackend(),
		shard.ExactBoundedMaxBackend(1 << 20),
		shard.MultMaxBackend(),
		shard.MultBoundedMaxBackend(1 << 20),
	} {
		var want shard.Bounds
		for i, s := range []int{1, 2, 8} {
			m, err := shard.NewMaxReg(4, 3, shard.Shards(s), shard.Batch(5), shard.WithBackend(be))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = m.Bounds()
				continue
			}
			if got := m.Bounds(); got != want {
				t.Errorf("%s: Bounds changed with shard count %d: %+v != %+v", be.Name(), s, got, want)
			}
		}
	}
}

// TestMaxRegElision pins the write-elision semantics directly on the
// exact backend: writes within B-1 of the last flushed value stay local,
// a write B or more above flushes immediately, stale writes are free, and
// Flush publishes the pending maximum.
func TestMaxRegElision(t *testing.T) {
	const b = 8
	m, err := shard.NewMaxReg(2, 1, shard.Shards(2), shard.Batch(b))
	if err != nil {
		t.Fatal(err)
	}
	w, r := m.Handle(0), m.Handle(1)
	w.Write(100) // 100 - 0 >= B: writes through
	if got := r.Read(); got != 100 {
		t.Fatalf("read %d after write-through, want 100", got)
	}
	steps := w.Steps()
	w.Write(100 + b - 1) // within the window: elided
	w.Write(90)          // stale: free
	w.Write(100)         // at the flushed value: free
	if w.Steps() != steps {
		t.Fatalf("elided writes took %d shared steps", w.Steps()-steps)
	}
	if got := w.Pending(); got != 100+b-1 {
		t.Fatalf("pending = %d, want %d", got, 100+b-1)
	}
	if got := r.Read(); got != 100 {
		t.Fatalf("read %d while %d is elided, want 100", got, 100+b-1)
	}
	w.Write(100 + b) // B above the flushed value: writes through, subsumes pending
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending after write-through = %d, want 0", got)
	}
	if got := r.Read(); got != 100+b {
		t.Fatalf("read %d after write-through, want %d", got, 100+b)
	}
	w.Write(100 + b + 3) // elided again
	w.Flush()
	if got := r.Read(); got != 100+b+3 {
		t.Fatalf("read %d after Flush, want %d", got, 100+b+3)
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending after Flush = %d, want 0", got)
	}
}

// TestNewMaxRegValidation mirrors TestNewValidation for the max-register
// side of the runtime.
func TestNewMaxRegValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		k    uint64
		opts []shard.Option
		want string // substring of the error, "" for success
	}{
		{name: "ok-defaults", n: 4, k: 1},
		{name: "ok-sharded-batched", n: 8, k: 2,
			opts: []shard.Option{shard.Shards(4), shard.Batch(16), shard.WithBackend(shard.MultMaxBackend())}},
		{name: "no-processes", n: 0, k: 1, want: "at least one process"},
		{name: "zero-shards", n: 4, k: 1, opts: []shard.Option{shard.Shards(0)}, want: "shard count"},
		{name: "zero-batch", n: 4, k: 1, opts: []shard.Option{shard.Batch(0)}, want: "batch size"},
		{name: "batch-swallows-bound", n: 4, k: 1,
			opts: []shard.Option{shard.Batch(16), shard.WithBackend(shard.ExactBoundedMaxBackend(16))}, want: "exceeds"},
		{name: "batch-at-bound-edge", n: 4, k: 1,
			opts: []shard.Option{shard.Batch(15), shard.WithBackend(shard.ExactBoundedMaxBackend(16))}},
		// Backend preconditions surface through NewMaxReg.
		{name: "mult-k-too-small", n: 4, k: 1,
			opts: []shard.Option{shard.WithBackend(shard.MultMaxBackend())}, want: "k must be >= 2"},
	} {
		_, err := shard.NewMaxReg(tc.n, tc.k, tc.opts...)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMaxRegOutOfRangePanics pins the fail-fast contract: on bounded
// backends an out-of-range write panics even when elision would otherwise
// have swallowed it.
func TestMaxRegOutOfRangePanics(t *testing.T) {
	m, err := shard.NewMaxReg(1, 1, shard.Batch(8), shard.WithBackend(shard.ExactBoundedMaxBackend(100)))
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handle(0)
	h.Write(95) // flushes; 100..102 would be elided if not range-checked
	defer func() {
		if recover() == nil {
			t.Error("out-of-range write did not panic")
		}
	}()
	h.Write(100)
}

// FuzzShardedMaxRegAccuracy lets the fuzzer pick the configuration: any
// (writers, shards, batch, k, ops) combination must keep every concurrent
// read inside the envelope, under the monotone + non-monotone write mix
// of runMaxEnvelopeCheck. The seeds cover the corners (single shard,
// batch 1, wide elision window); 'go test' runs them on every CI pass and
// 'go test -fuzz=FuzzShardedMaxRegAccuracy ./internal/shard' explores
// further.
func FuzzShardedMaxRegAccuracy(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint16(200))
	f.Add(uint8(3), uint8(4), uint8(8), uint8(2), uint16(1000))
	f.Add(uint8(4), uint8(2), uint8(64), uint8(5), uint16(2000))
	f.Fuzz(func(t *testing.T, writersIn, sIn, bIn, kIn uint8, opsIn uint16) {
		writers := int(writersIn)%4 + 1
		s := int(sIn)%8 + 1
		b := int(bIn)%64 + 1
		k := uint64(kIn)%15 + 2
		perG := int(opsIn)%2_000 + 50
		runMaxEnvelopeCheck(t, writers, k, perG,
			shard.Shards(s), shard.Batch(b), shard.WithBackend(shard.MultMaxBackend()))
	})
}
