package shard_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"approxobj/internal/planetest"
	"approxobj/internal/shard"
)

// runSnapshotEnvelopeCheck drives writers goroutines, each the single
// writer of its own component (op j writes planetest.SeqValue(j)),
// against a sharded snapshot while one dedicated reader checks EVERY
// concurrently scanned component against the documented per-component
// envelope, relative to the component's regularity window: between the
// updates completed before the scan started and those started before it
// returned (planetest.Window computes the value hull of that window —
// tight for the monotone sequence, conservative for the mixed one).
func runSnapshotEnvelopeCheck(t *testing.T, writers, perG int, mixed bool, opts ...shard.Option) {
	t.Helper()
	n := writers + 1 // slot n-1 is the reader
	sn, err := shard.NewSnapshot(n, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	bounds := sn.Bounds()

	started := make([]atomic.Uint64, writers)   // updates started per component
	completed := make([]atomic.Uint64, writers) // updates completed per component
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(writers)
	handles := make([]*shard.SnapshotHandle, writers)
	for i := 0; i < writers; i++ {
		h := sn.Handle(i)
		handles[i] = h
		if h.Component() != i {
			t.Fatalf("handle %d reports component %d", i, h.Component())
		}
		i := i
		go func() {
			defer wg.Done()
			for j := 1; j <= perG; j++ {
				started[i].Store(uint64(j))
				h.Update(planetest.SeqValue(uint64(j), mixed))
				completed[i].Store(uint64(j))
			}
		}()
	}

	var checks uint64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rh := sn.Handle(n - 1)
		check := func() {
			a := make([]uint64, writers)
			for i := range a {
				a[i] = completed[i].Load()
			}
			view := rh.Scan()
			for i := 0; i < writers; i++ {
				b := started[i].Load()
				// The component's true value during the scan is
				// SeqValue(t) for some op t in [a[i], b]: inside the
				// window's value hull.
				vmin, vmax := planetest.Window(a[i], b, mixed)
				checks++
				if !bounds.ContainsRange(vmin, vmax, view[i]) {
					t.Errorf("component %d read %d outside envelope %+v for any value in [%d, %d]", i, view[i], bounds, vmin, vmax)
				}
			}
		}
		for !done.Load() {
			check()
		}
		check() // one fully quiescent scan
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if checks == 0 {
		t.Fatal("reader performed no checks")
	}

	// After flushing every writer handle the elision headroom disappears:
	// the exact backend's merged scan must equal each component's final
	// value exactly.
	for _, h := range handles {
		h.Flush()
	}
	view := sn.Handle(n - 1).Scan()
	for i := 0; i < writers; i++ {
		if want := planetest.SeqValue(uint64(perG), mixed); view[i] != want {
			t.Errorf("component %d flushed scan = %d, want exactly %d", i, view[i], want)
		}
	}
}

// TestShardedSnapshotEnvelopeSweep sweeps (writers, shards, batch) over
// monotone and mixed per-component sequences, checking every
// concurrently scanned component against the documented envelope. Note
// Bounds is identical for every shard count: the per-component merge
// widens nothing.
func TestShardedSnapshotEnvelopeSweep(t *testing.T) {
	perG := 2_000
	if testing.Short() {
		perG = 300
	}
	for _, writers := range []int{1, 3} {
		for _, s := range []int{1, 2, 5} {
			for _, b := range []int{1, 8} {
				for _, mixed := range []bool{false, true} {
					name := "mono"
					if mixed {
						name = "mixed"
					}
					t.Run(
						name+"-w"+itoa(writers)+"-s"+itoa(s)+"-b"+itoa(b),
						func(t *testing.T) {
							t.Parallel()
							runSnapshotEnvelopeCheck(t, writers, perG, mixed,
								shard.Shards(s), shard.Batch(b))
						})
				}
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSnapshotShardingInvariance pins the composition claim directly:
// the envelope must not depend on the shard count.
func TestSnapshotShardingInvariance(t *testing.T) {
	var want shard.Bounds
	for s := 1; s <= 4; s++ {
		sn, err := shard.NewSnapshot(4, 1, shard.Shards(s), shard.Batch(5))
		if err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			want = sn.Bounds()
			if want != (shard.Bounds{Mult: 1, Add: 0, Buffer: 4}) {
				t.Fatalf("unsharded snapshot Bounds = %+v, want {Mult:1 Add:0 Buffer:4}", want)
			}
			continue
		}
		if got := sn.Bounds(); got != want {
			t.Errorf("S=%d Bounds = %+v, want %+v (independent of S)", s, got, want)
		}
	}
}

// TestSnapshotElision pins the component-elision semantics directly on
// the handle: upward moves inside the window stay local (no shared
// steps, latest value pending), downward moves and moves past the window
// write through, Flush publishes the pending value.
func TestSnapshotElision(t *testing.T) {
	const b = 4 // elision window [flushed, flushed+3]
	sn, err := shard.NewSnapshot(2, 1, shard.Shards(2), shard.Batch(b))
	if err != nil {
		t.Fatal(err)
	}
	w := sn.Handle(0)
	r := sn.Handle(1)

	shared := func(f func()) uint64 {
		before := w.Steps()
		f()
		return w.Steps() - before
	}

	// 1 is inside the initial window [0, 3]: elided, invisible to scans.
	if s := shared(func() { w.Update(1) }); s != 0 {
		t.Errorf("Update(1) inside the window took %d shared steps, want 0", s)
	}
	if w.Pending() != 1 {
		t.Errorf("Pending = %d after eliding 1, want 1", w.Pending())
	}
	if v := r.Scan()[0]; v != 0 {
		t.Errorf("component 0 scans as %d after elided update, want 0", v)
	}

	// 5 leaves the window: written through, pending superseded.
	if s := shared(func() { w.Update(5) }); s == 0 {
		t.Error("Update(5) outside the window took no shared steps")
	}
	if v := r.Scan()[0]; v != 5 {
		t.Errorf("component 0 scans as %d after write-through of 5, want 5", v)
	}

	// 6..8 are inside [5, 8]: elided, the LATEST (not highest) pending.
	if s := shared(func() { w.Update(8); w.Update(6) }); s != 0 {
		t.Errorf("in-window updates took %d shared steps, want 0", s)
	}
	if w.Pending() != 6 {
		t.Errorf("Pending = %d, want the latest elided value 6", w.Pending())
	}

	// A downward move always writes through: scans must not overstate.
	if s := shared(func() { w.Update(2) }); s == 0 {
		t.Error("downward Update(2) took no shared steps")
	}
	if v := r.Scan()[0]; v != 2 {
		t.Errorf("component 0 scans as %d after downward move, want 2", v)
	}

	// Re-writing the flushed value supersedes any pending elision.
	w.Update(3)
	w.Update(2)
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after returning to the flushed value, want 0", w.Pending())
	}

	// Flush publishes the pending elided value.
	w.Update(4)
	w.Flush()
	if v := r.Scan()[0]; v != 4 {
		t.Errorf("component 0 scans as %d after Flush, want 4", v)
	}
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after Flush, want 0", w.Pending())
	}
}

// TestSnapshotHandleRecreation pins the elision-state recovery of a
// re-created handle: the envelope's "a scanned component never exceeds
// its true value" clause must survive abandoning a handle and building a
// new one for the same slot — a fresh handle's elision window must be
// anchored at the component's currently flushed value, not at zero, so a
// downward move still writes through.
func TestSnapshotHandleRecreation(t *testing.T) {
	sn, err := shard.NewSnapshot(2, 1, shard.Batch(8))
	if err != nil {
		t.Fatal(err)
	}
	r := sn.Handle(1)

	h1 := sn.Handle(0)
	h1.Update(100) // writes through (outside the initial window)
	if v := r.Scan()[0]; v != 100 {
		t.Fatalf("component 0 = %d after write-through, want 100", v)
	}

	// Abandon h1; a new handle for slot 0 must not elide the downward
	// move to 3 (3 is inside a zero-anchored window [0, 7]).
	h2 := sn.Handle(0)
	h2.Update(3)
	if v := r.Scan()[0]; v != 3 {
		t.Errorf("component 0 = %d after re-created handle's downward move, want 3 (scan overstates the component)", v)
	}

	// And in-window elision still works relative to the recovered value.
	h2.Update(5)
	if v := r.Scan()[0]; v != 3 {
		t.Errorf("component 0 = %d, want 3 (in-window update must still elide)", v)
	}
	h2.Flush()
	if v := r.Scan()[0]; v != 5 {
		t.Errorf("component 0 = %d after flush, want 5", v)
	}

	// The same invariant at batch=1 (no elision window): even the
	// value-unchanged fast path must not fire against a stale zero, so a
	// re-created handle's Update(0) writes through.
	un, err := shard.NewSnapshot(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ur := un.Handle(1)
	un.Handle(0).Update(5)
	un.Handle(0).Update(0) // fresh handle for slot 0
	if v := ur.Scan()[0]; v != 0 {
		t.Errorf("component 0 = %d after re-created unbuffered handle's Update(0), want 0", v)
	}
}

// TestSnapshotHandleConstructionCost pins the cost of recovering a
// handle's elision anchor: the AADGMS backend exposes a single-component
// read, so (re)creating a handle costs ONE register read on the home
// shard — not a full O(n^2) scan. (Steps are counted per process slot
// and survive across handle instances, so the construction cost is the
// delta around Handle.)
func TestSnapshotHandleConstructionCost(t *testing.T) {
	for _, s := range []int{1, 3} {
		sn, err := shard.NewSnapshot(8, 1, shard.Shards(s), shard.Batch(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			sn.Handle(i).Update(uint64(100 + i))
		}
		probe := sn.Handle(0)
		before := probe.Steps()
		h := sn.Handle(0)
		if d := h.Steps() - before; d != 1 {
			t.Errorf("S=%d: re-creating a handle took %d shared steps, want 1 (one component read)", s, d)
		}
		// And the recovered anchor still protects the envelope: the
		// downward move writes through.
		h.Update(3)
		if v := sn.Handle(1).Scan()[0]; v != 3 {
			t.Errorf("S=%d: component 0 = %d after recovered handle's downward move, want 3", s, v)
		}
	}
}

// TestNewSnapshotValidation mirrors the other kinds' constructor checks.
func TestNewSnapshotValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts []shard.Option
		want string // error substring; "" means valid
	}{
		{name: "ok", n: 4, opts: []shard.Option{shard.Shards(3), shard.Batch(16)}},
		{name: "zero-procs", n: 0, want: "process slot"},
		{name: "zero-shards", n: 4, opts: []shard.Option{shard.Shards(0)}, want: "shard count"},
		{name: "zero-batch", n: 4, opts: []shard.Option{shard.Batch(0)}, want: "batch size"},
	} {
		_, err := shard.NewSnapshot(tc.n, 1, tc.opts...)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzSnapshotAccuracy lets the fuzzer pick the configuration: any
// (writers, shards, batch, ops) combination must keep every concurrently
// scanned component inside the envelope, under both the monotone and the
// mixed per-component sequences of runSnapshotEnvelopeCheck. The seeds
// cover the corners (single shard, batch 1, wide elision window); 'go
// test' runs them on every CI pass and
// 'go test -fuzz=FuzzSnapshotAccuracy ./internal/shard' explores further.
func FuzzSnapshotAccuracy(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint16(200), false)
	f.Add(uint8(3), uint8(4), uint8(8), uint16(1000), true)
	f.Add(uint8(4), uint8(2), uint8(64), uint16(2000), true)
	f.Fuzz(func(t *testing.T, writersIn, sIn, bIn uint8, opsIn uint16, mixed bool) {
		writers := int(writersIn)%4 + 1
		s := int(sIn)%8 + 1
		b := int(bIn)%64 + 1
		perG := int(opsIn)%2_000 + 50
		runSnapshotEnvelopeCheck(t, writers, perG, mixed,
			shard.Shards(s), shard.Batch(b))
	})
}
