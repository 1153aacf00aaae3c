package approxobj

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandlePoolSoak churns Acquire/release on a batched counter from far
// more goroutines than slots. Run with -race it validates that pooled
// handle reuse across goroutines is properly synchronized (handles carry
// non-atomic per-process state — scan positions, batch buffers — that
// successive owners share through the pool's happens-before edge), and
// the final count checks that release flushed every batch buffer: with
// exact accuracy, nothing may be lost.
func TestHandlePoolSoak(t *testing.T) {
	const slots = 4
	const goroutines = 4 * slots
	iters := 300
	if testing.Short() {
		iters = 40
	}
	const perAcquire = 17 // not a multiple of the batch: buffers stay loaded at release
	c, err := NewCounter(WithProcs(slots), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h, release := c.Acquire()
				for j := 0; j < perAcquire; j++ {
					h.Inc()
				}
				_ = h.Read()
				release()
				release() // idempotent: a double release must not corrupt the pool
			}
		}()
	}
	wg.Wait()

	want := uint64(goroutines * iters * perAcquire)
	c.Do(func(h CounterHandle) {
		if got := h.Read(); got != want {
			t.Errorf("exact counter lost or duplicated increments through the pool: Read = %d, want %d", got, want)
		}
	})
	if c.StepsRetired() == 0 {
		t.Error("released handles credited no steps")
	}
}

// leased is one pooled handle reduced to what TestPoolContract drives:
// a mutation, Flush, Steps, and the release function. h is the handle
// itself (nil when TryAcquire failed).
type leased struct {
	h       any
	mutate  func()
	flush   func()
	steps   func() uint64
	release func()
}

// pooledObject is one object kind's pool surface, behind closures so a
// single table can drive all four kinds.
type pooledObject struct {
	n            int
	tryAcquire   func() (leased, bool)
	handle       func(i int)
	stepsRetired func() uint64
	close        func()
}

// TestPoolContract checks the pool contract every kind shares, for each
// kind cumulative and windowed: an exhausted TryAcquire returns a nil
// handle, a nil release and false; a double release credits steps once
// and frees the slot once; StepsRetired is the sum over releases of each
// handle's steps since its slot's previous release; Handle panics out of
// range.
func TestPoolContract(t *testing.T) {
	var v uint64 // mutation values, rising so every write moves the object
	next := func() uint64 { v++; return v }
	kinds := []struct {
		name  string
		opts  []Option
		build func(opts []Option) (pooledObject, error)
	}{
		{"counter", nil, func(opts []Option) (pooledObject, error) {
			c, err := NewCounter(opts...)
			if err != nil {
				return pooledObject{}, err
			}
			return pooledObject{c.N(), func() (leased, bool) {
				h, rel, ok := c.TryAcquire()
				if !ok {
					return leased{h: h, release: rel}, false
				}
				return leased{h, h.Inc, h.(BatchedCounterHandle).Flush, h.Steps, rel}, true
			}, func(i int) { c.Handle(i) }, c.StepsRetired, c.Close}, nil
		}},
		{"max-register", nil, func(opts []Option) (pooledObject, error) {
			r, err := NewMaxRegister(opts...)
			if err != nil {
				return pooledObject{}, err
			}
			return pooledObject{r.N(), func() (leased, bool) {
				h, rel, ok := r.TryAcquire()
				if !ok {
					return leased{h: h, release: rel}, false
				}
				return leased{h, func() { h.Write(next()) }, h.(BatchedMaxRegisterHandle).Flush, h.Steps, rel}, true
			}, func(i int) { r.Handle(i) }, r.StepsRetired, r.Close}, nil
		}},
		{"snapshot", nil, func(opts []Option) (pooledObject, error) {
			s, err := NewSnapshot(opts...)
			if err != nil {
				return pooledObject{}, err
			}
			return pooledObject{s.N(), func() (leased, bool) {
				h, rel, ok := s.TryAcquire()
				if !ok {
					return leased{h: h, release: rel}, false
				}
				return leased{h, func() { h.Update(next()) }, h.(BatchedSnapshotHandle).Flush, h.Steps, rel}, true
			}, func(i int) { s.Handle(i) }, s.StepsRetired, s.Close}, nil
		}},
		{"histogram", []Option{WithAccuracy(Multiplicative(2))}, func(opts []Option) (pooledObject, error) {
			hg, err := NewHistogram(opts...)
			if err != nil {
				return pooledObject{}, err
			}
			return pooledObject{hg.N(), func() (leased, bool) {
				h, rel, ok := hg.TryAcquire()
				if !ok {
					return leased{h: h, release: rel}, false
				}
				return leased{h, func() { h.Observe(next()) }, h.(BatchedHistogramHandle).Flush, h.Steps, rel}, true
			}, func(i int) { hg.Handle(i) }, hg.StepsRetired, hg.Close}, nil
		}},
	}
	for _, k := range kinds {
		for _, windowed := range []bool{false, true} {
			name := k.name + "/cumulative"
			opts := append([]Option{WithProcs(2), WithBatch(4)}, k.opts...)
			if windowed {
				name = k.name + "/windowed"
				opts = append(opts, WithWindow(time.Hour, 4))
			}
			t.Run(name, func(t *testing.T) {
				o, err := k.build(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer o.close()
				mustAcquire := func() leased {
					t.Helper()
					l, ok := o.tryAcquire()
					if !ok || l.h == nil || l.release == nil {
						t.Fatalf("TryAcquire with a free slot: handle %v, ok %v", l.h, ok)
					}
					return l
				}
				credited := map[any]uint64{} // steps credited per cached handle
				var want uint64
				// use mutates through l, then double-releases it: only the
				// first release may credit the steps since the previous one.
				use := func(l leased, ops int) {
					t.Helper()
					for i := 0; i < ops; i++ {
						l.mutate()
					}
					l.flush()
					steps := l.steps()
					want += steps - credited[l.h]
					credited[l.h] = steps
					l.release()
					l.release()
					if got := o.stepsRetired(); got != want {
						t.Fatalf("StepsRetired = %d, want %d (the released handles' step deltas)", got, want)
					}
				}

				a, b := mustAcquire(), mustAcquire()
				if l, ok := o.tryAcquire(); ok || l.h != nil || l.release != nil {
					t.Fatalf("exhausted TryAcquire = (%v, release set %v, %v), want (nil, false, false)", l.h, l.release != nil, ok)
				}
				use(a, 7)
				// The double release freed a's slot once: one TryAcquire
				// gets it, the next finds the pool exhausted again.
				c := mustAcquire()
				if _, ok := o.tryAcquire(); ok {
					t.Fatal("double release put its slot in the free list twice")
				}
				use(c, 5)
				use(b, 9)
				for round := 0; round < 3; round++ {
					use(mustAcquire(), round+1)
				}
				if want == 0 {
					t.Fatal("released handles credited no steps")
				}

				for _, i := range []int{-1, o.n} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("Handle(%d) did not panic (N = %d)", i, o.n)
							}
						}()
						o.handle(i)
					}()
				}
			})
		}
	}
}

// TestDoBlocksUntilFree pins Do's blocking contract: a Do issued while
// all slots are held completes only after a release.
func TestDoBlocksUntilFree(t *testing.T) {
	c, err := NewCounter(WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	_, release := c.Acquire()
	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		c.Do(func(h CounterHandle) { ran.Store(true) })
		close(done)
	}()
	if ran.Load() {
		t.Fatal("Do ran while the only slot was held")
	}
	release()
	<-done
	if !ran.Load() {
		t.Fatal("Do never ran")
	}
}

// TestMaxRegisterPoolSoak is the max-register counterpart of the pool
// soak: monotone writes through churning pooled handles, final read must
// be the true maximum. The sharded/elided variant relies on release
// flushing each handle's pending elided write — with exact accuracy and
// every handle released, nothing may be stale.
func TestMaxRegisterPoolSoak(t *testing.T) {
	const slots = 3
	const goroutines = 4 * slots
	iters := 500
	if testing.Short() {
		iters = 50
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithProcs(slots)}},
		{"sharded-elided", []Option{WithProcs(slots), WithShards(2), WithBatch(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewMaxRegister(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var next atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						v := next.Add(1)
						r.Do(func(h MaxRegisterHandle) { h.Write(v) })
					}
				}()
			}
			wg.Wait()
			want := uint64(goroutines * iters)
			r.Do(func(h MaxRegisterHandle) {
				if got := h.Read(); got != want {
					t.Errorf("exact max register Read = %d, want %d (release must flush elided writes)", got, want)
				}
			})
			if r.StepsRetired() == 0 {
				t.Error("released handles credited no steps")
			}
		})
	}
}
