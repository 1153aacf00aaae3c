package shard

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"
)

// hourWindow is long enough that the background rotator never fires
// inside a test: every rotation in this file is forced with Rotate, so
// epoch movement is deterministic.
const hourWindow = time.Hour

func exactCounterOpts(extra ...Option) []Option {
	return append([]Option{WithBackend(AACHBackend())}, extra...)
}

// TestWindowValidation checks the constructor preconditions.
func TestWindowValidation(t *testing.T) {
	if _, err := NewWindowedCounter(2, 1, 0, 4, exactCounterOpts()...); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewWindowedCounter(2, 1, -time.Second, 4, exactCounterOpts()...); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := NewWindowedCounter(2, 1, time.Minute, 1, exactCounterOpts()...); err == nil {
		t.Error("single-epoch window accepted")
	}
	if _, err := NewWindowedCounter(2, 1, time.Minute, 0, exactCounterOpts()...); err == nil {
		t.Error("zero-epoch window accepted")
	}
}

// TestWindowedCounterExpiry drives rotations by hand: writes stay
// visible for epochs-1 further rotations (the live ring) and expire on
// the rotation that evicts their epoch.
func TestWindowedCounterExpiry(t *testing.T) {
	const epochs = 4
	c, err := NewWindowedCounter(2, 1, hourWindow, epochs, exactCounterOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handle(0)
	for i := 0; i < 10; i++ {
		h.Inc()
	}
	if got := h.Read(); got != 10 {
		t.Fatalf("fresh read = %d, want 10", got)
	}
	// The write epoch stays in the ring for epochs-1 rotations...
	for r := 1; r < epochs; r++ {
		c.Rotate()
		if got := h.Read(); got != 10 {
			t.Fatalf("read after %d rotations = %d, want 10 (epoch still live)", r, got)
		}
	}
	// ...and is evicted by the next one.
	c.Rotate()
	if got := h.Read(); got != 0 {
		t.Fatalf("read after full ring turnover = %d, want 0 (window truncated)", got)
	}
	// The handle keeps working against the fresh epochs.
	h.Inc()
	if got := h.Read(); got != 1 {
		t.Fatalf("read after expiry + new write = %d, want 1", got)
	}
}

// TestWindowedKindsExpireToEmpty checks the same turnover for the other
// kinds: the max register's high-water mark, the snapshot's components,
// and the histogram's buckets all expire to zero/empty.
func TestWindowedKindsExpireToEmpty(t *testing.T) {
	const epochs = 3
	m, err := NewWindowedMaxReg(2, 1, hourWindow, epochs, WithBackend(ExactMaxBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mh := m.Handle(0)
	mh.Write(99)
	s, err := NewWindowedSnapshot(2, 1, hourWindow, epochs, WithBackend(ExactSnapshotBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.Handle(1)
	sh.Update(7)
	hg, err := NewWindowedHistogram(2, 2, 8, hourWindow, epochs)
	if err != nil {
		t.Fatal(err)
	}
	defer hg.Close()
	hh := hg.Handle(0)
	hh.Add(3)

	if got := mh.Read(); got != 99 {
		t.Fatalf("windowed max = %d, want 99", got)
	}
	if got := sh.Scan(); got[1] != 7 {
		t.Fatalf("windowed scan = %v, want component 1 = 7", got)
	}
	if got := hh.Buckets(); got[3] != 1 {
		t.Fatalf("windowed buckets = %v, want bucket 3 = 1", got)
	}

	for r := 0; r < epochs; r++ {
		m.Rotate()
		s.Rotate()
		hg.Rotate()
	}
	if got := mh.Read(); got != 0 {
		t.Errorf("expired max = %d, want 0", got)
	}
	for i, v := range sh.Scan() {
		if v != 0 {
			t.Errorf("expired scan component %d = %d, want 0", i, v)
		}
	}
	for b, v := range hh.Buckets() {
		if v != 0 {
			t.Errorf("expired bucket %d = %d, want 0", b, v)
		}
	}
}

// TestWindowedZeroObservations checks the empty window: a never-written
// windowed object reads as zero/empty across rotations, not as garbage
// or a panic.
func TestWindowedZeroObservations(t *testing.T) {
	hg, err := NewWindowedHistogram(2, 2, 8, hourWindow, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer hg.Close()
	h := hg.Handle(0)
	for r := 0; r < 6; r++ {
		for b, v := range h.Buckets() {
			if v != 0 {
				t.Fatalf("rotation %d: empty window bucket %d = %d", r, b, v)
			}
		}
		if s := h.Steps(); s == 0 {
			t.Fatalf("rotation %d: reading an empty window took no steps", r)
		}
		hg.Rotate()
	}
}

// TestRotationRacingBatchedWrites is the "never lost" check, run under
// -race in CI: a writer with batched increments races rotations and a
// concurrent reader. At most epochs-1 rotations fire, so only
// pre-filled EMPTY epochs are evicted — every write stays in the live
// ring, landing in the epoch current when the writer resolved the ring
// or an adjacent newer one. After quiescence and a flush, the windowed
// read must equal the write count exactly (exact backend).
func TestRotationRacingBatchedWrites(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			const (
				epochs = 8
				incs   = 20_000
			)
			opts := exactCounterOpts(Batch(16))
			if cached {
				opts = append(opts, ReadCache(time.Millisecond))
			}
			c, err := NewWindowedCounter(3, 1, hourWindow, epochs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			w := c.Handle(0)
			r := c.Handle(1)
			var wg sync.WaitGroup
			start := make(chan struct{})
			stopRead := make(chan struct{})

			wg.Add(1)
			go func() { // writer: batched increments racing rotation
				defer wg.Done()
				<-start
				for i := 0; i < incs; i++ {
					w.Inc()
				}
			}()
			wg.Add(1)
			go func() { // rotator: at most epochs-1 rotations, so no write-bearing epoch is evicted
				defer wg.Done()
				<-start
				for i := 0; i < epochs-1; i++ {
					c.Rotate()
					time.Sleep(time.Millisecond)
				}
			}()
			readDone := make(chan struct{})
			go func() { // reader: windowed (and possibly cached) reads racing both
				defer close(readDone)
				<-start
				for {
					select {
					case <-stopRead:
						return
					default:
					}
					if got := r.Read(); got > incs {
						t.Errorf("mid-race read %d exceeds total writes %d", got, incs)
						return
					}
				}
			}()

			close(start)
			wg.Wait()
			close(stopRead)
			<-readDone

			w.Flush()
			if cached {
				// Let every live epoch's cache window lapse so the final
				// read cannot serve a pre-flush cell.
				time.Sleep(5 * time.Millisecond)
			}
			if got := r.Read(); got != incs {
				t.Fatalf("quiescent windowed read = %d, want exactly %d (writes lost or duplicated)", got, incs)
			}
		})
	}
}

// TestRotationRacingElidedSnapshotUpdates runs the same never-lost
// shape for the snapshot kind, whose buffer policy (component elision)
// holds a pending VALUE rather than a count: after the race and a
// flush, the component must read its high-water mark.
func TestRotationRacingElidedSnapshotUpdates(t *testing.T) {
	const (
		epochs  = 6
		updates = 10_000
	)
	s, err := NewWindowedSnapshot(3, 1, hourWindow, epochs,
		WithBackend(ExactSnapshotBackend()), Batch(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Handle(0)
	r := s.Handle(1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	stopRead := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i <= updates; i++ {
			w.Update(uint64(i))
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < epochs-1; i++ {
			s.Rotate()
			time.Sleep(time.Millisecond)
		}
	}()
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		<-start
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			if got := r.Scan()[0]; got > updates {
				t.Errorf("mid-race component read %d exceeds high-water mark %d", got, updates)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stopRead)
	<-readDone
	w.Flush()
	if got := r.Scan()[0]; got != updates {
		t.Fatalf("quiescent component = %d, want high-water mark %d", got, updates)
	}
}

// TestWindowedStepsMonotone checks the Steps contract across rebinds:
// rotation drops per-epoch handles, but the window handle accumulates
// their steps, so Steps never goes backwards.
func TestWindowedStepsMonotone(t *testing.T) {
	c, err := NewWindowedCounter(2, 1, hourWindow, 3, exactCounterOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handle(0)
	var last uint64
	for r := 0; r < 10; r++ {
		h.Inc()
		h.Read()
		if s := h.Steps(); s < last {
			t.Fatalf("rotation %d: Steps went backwards %d -> %d", r, last, s)
		} else {
			last = s
		}
		c.Rotate()
	}
	if last == 0 {
		t.Fatal("Steps stayed zero through writes and reads")
	}
}

// TestWindowReset checks the reset semantics: the whole window
// restarts, the object stays usable, and the ring keeps rotating
// afterwards.
func TestWindowReset(t *testing.T) {
	c, err := NewWindowedCounter(2, 1, hourWindow, 4, exactCounterOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handle(0)
	for i := 0; i < 5; i++ {
		h.Inc()
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := h.Read(); got != 0 {
		t.Fatalf("read after Reset = %d, want 0", got)
	}
	h.Inc()
	if got := h.Read(); got != 1 {
		t.Fatalf("read after Reset + Inc = %d, want 1", got)
	}
	c.Rotate()
	if got := h.Read(); got != 1 {
		t.Fatalf("read after Reset + Inc + rotate = %d, want 1", got)
	}
}

// TestWindowCloseFreezes pins the post-Close contract: reads keep
// returning the last value (no further aging), writes still land,
// Rotate is a no-op, Reset errors, and Close is idempotent.
func TestWindowCloseFreezes(t *testing.T) {
	c, err := NewWindowedCounter(2, 1, hourWindow, 4, exactCounterOpts(ReadCache(time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handle(0)
	for i := 0; i < 7; i++ {
		h.Inc()
	}
	c.Close()
	c.Close() // idempotent
	time.Sleep(2 * time.Millisecond)
	if got := h.Read(); got != 7 { // cached cell expired; inline refresh post-close
		t.Fatalf("read after Close = %d, want frozen 7", got)
	}
	c.Rotate() // frozen: must not age anything out
	if got := h.Read(); got != 7 {
		t.Fatalf("read after post-Close Rotate = %d, want 7", got)
	}
	if err := c.Reset(); err == nil {
		t.Fatal("Reset after Close succeeded, want frozen-window error")
	}
	h.Inc()                          // draining writers still land in the frozen epoch
	time.Sleep(2 * time.Millisecond) // let the cached cell lapse so the read refreshes inline
	if got := h.Read(); got != 8 {
		t.Fatalf("read after post-Close Inc = %d, want 8", got)
	}
}

// TestWindowCloseStopsGoroutines checks that Close leaves no rotator or
// combiner goroutine behind, even with read caches on every epoch.
func TestWindowCloseStopsGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	for i := 0; i < 8; i++ {
		c, err := NewWindowedCounter(2, 1, time.Second, 4, exactCounterOpts(ReadCache(time.Millisecond))...)
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handle(0)
		h.Inc()
		h.Read()
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		goruntime.GC()
		if goruntime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close of every window", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWindowedBoundsComposition checks the envelope algebra: Add scales
// by the epoch count for sum-combining kinds only, Buffer stays the
// per-epoch value (pending mutations live in at most one epoch), and
// the Window term is d/epochs.
func TestWindowedBoundsComposition(t *testing.T) {
	const epochs = 5
	base, err := New(2, 8, WithBackend(AdditiveBackend()), Shards(2), Batch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	wc, err := NewWindowedCounter(2, 8, hourWindow, epochs, WithBackend(AdditiveBackend()), Shards(2), Batch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eb, wb := base.Bounds(), wc.Bounds()
	if wb.Add != eb.Add*epochs {
		t.Errorf("windowed Add = %d, want per-epoch %d x %d epochs", wb.Add, eb.Add, epochs)
	}
	if wb.Buffer != eb.Buffer {
		t.Errorf("windowed Buffer = %d, want per-epoch %d (no widening)", wb.Buffer, eb.Buffer)
	}
	if wb.Mult != eb.Mult {
		t.Errorf("windowed Mult = %d, want per-epoch %d", wb.Mult, eb.Mult)
	}
	if want := hourWindow / epochs; wb.Window != want {
		t.Errorf("Window term = %v, want d/epochs = %v", wb.Window, want)
	}
	if wb.IsExact() {
		t.Error("windowed additive envelope reports exact")
	}

	// Max registers partition instead of summing: nothing widens.
	m, err := NewWindowedMaxReg(2, 2, hourWindow, epochs, WithBackend(MultMaxBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bm, err := NewMaxReg(2, 2, WithBackend(MultMaxBackend()))
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	if wmb, emb := m.Bounds(), bm.Bounds(); wmb.Add != emb.Add || wmb.Mult != emb.Mult || wmb.Buffer != emb.Buffer {
		t.Errorf("windowed max-register envelope %+v differs from per-epoch %+v beyond the Window term", wmb, emb)
	}
}
