package approxobj

import (
	"fmt"
	"sync/atomic"

	"approxobj/internal/pool"
	"approxobj/internal/shard"
)

// This file holds what the four object kinds share: the spec, the shard
// runtime behind the object, and the pooled side of handle management.
// Every object owns a free list (internal/pool) of its process slots,
// and goroutines borrow exclusive handles from it instead of computing
// slot indices. Slot ownership transfers through the pool's channel,
// which also gives the happens-before edge that lets successive owners
// reuse a slot's cached handle (and its persistent per-process
// algorithm state) without extra synchronization. Counter, MaxRegister,
// Snapshot and Histogram embed base; each contributes only its typed
// Acquire/TryAcquire/Do/Handle facades, its read-side methods, and the
// constructor that picks a cumulative or a windowed runtime.

// shardRuntime is the kind-agnostic surface of a built shard runtime.
// Every kind's cumulative and windowed objects in internal/shard
// satisfy it; the windowed ones add Reset.
type shardRuntime interface {
	Bounds() shard.Bounds
	BaseObjects() uint64
	Close()
}

// slotHandle is what the pool needs from a kind's handle type: release
// flushes it and credits its steps. Every Batched*Handle satisfies it.
type slotHandle interface {
	comparable
	Flush()
	Steps() uint64
}

// poolSlot is one process slot's pool state.
type poolSlot[H slotHandle] struct {
	gen      atomic.Uint64 // lease generation (see lease)
	h        H             // the slot's handle, built on first lease
	credited uint64        // h's steps already added to the retired counter
}

// base is the shared core of every public object: its spec, its shard
// runtime, the slot pool of cached handles of type H, and the registry's
// snapshot handle.
type base[H slotHandle] struct {
	spec Spec
	rt   shardRuntime
	bind func(i int) H // binds process slot i on rt

	free    *pool.Pool
	slots   []poolSlot[H]
	retired atomic.Uint64 // steps credited by released pooled handles

	snap H // registry snapshot handle (slot procs), zero when unregistered
}

// init wires a built runtime into the object (in place: base holds
// atomics and must not be copied once in use). bind is the runtime's
// typed Handle, adapted to H.
func (b *base[H]) init(spec Spec, rt shardRuntime, bind func(i int) H) {
	b.spec, b.rt, b.bind = spec, rt, bind
	b.free = pool.New(spec.procs)
	b.slots = make([]poolSlot[H], spec.procs)
	instrumentObject(spec, b.free, rt.BaseObjects)
	if spec.snapshotSlot {
		b.snap = bind(spec.procs)
	}
}

// Spec returns the validated spec the object was built from.
func (b *base[H]) Spec() Spec { return b.spec }

// N returns the number of process slots available to callers (for a
// snapshot, also its number of components).
func (b *base[H]) N() int { return b.spec.procs }

// Accuracy returns the accuracy selection.
func (b *base[H]) Accuracy() Accuracy { return b.spec.acc }

// Shards returns the shard count.
func (b *base[H]) Shards() int { return b.spec.shards }

// Batch returns the per-handle buffer size B (1 means unbuffered): the
// increment batch of a counter, the write-elision window of a max
// register, the component-elision window of a snapshot, and the
// observation buffer of a histogram.
func (b *base[H]) Batch() uint64 { return uint64(b.spec.batch) }

// BaseObjects returns the number of base objects (registers, TAS
// instances) the object has allocated across its shards — and, for
// windowed objects, its live epoch ring. It is the object's space cost
// in the paper's model; the frontier bench (E19) reports it to compare
// deterministic and randomized state at equal target error.
func (b *base[H]) BaseObjects() uint64 { return b.rt.BaseObjects() }

// Close stops the object's background goroutines — the read cache's
// combiner when WithReadCache is set, and the epoch rotator when
// WithWindow is set (the window freezes: no further aging; reads keep
// serving the frozen ring and Reset returns an error). Idempotent, and
// a no-op otherwise; handles stay usable afterwards (cached reads
// refresh inline).
func (b *base[H]) Close() { b.rt.Close() }

// Reset replaces the whole window with fresh epochs — the object
// restarts empty. Only windowed objects (WithWindow) support it; it is
// an error otherwise, and after Close. Reset is not atomic with
// concurrent mutations: a mutation racing it lands on either side,
// exactly like a mutation racing a rotation.
func (b *base[H]) Reset() error {
	w, ok := b.rt.(interface{ Reset() error })
	if !ok {
		return fmt.Errorf("approxobj: Reset needs a windowed %s (WithWindow); this one is cumulative", descriptorOf(b.spec.kind).name)
	}
	return w.Reset()
}

// StepsRetired returns the cumulative shared-memory steps credited by
// released pooled handles. Steps of handles still held, or of manual
// Handle(i) handles, are not included (their counters are owned by the
// holding goroutine and cannot be read safely mid-flight).
func (b *base[H]) StepsRetired() uint64 { return b.retired.Load() }

// bounds is the runtime's envelope, corrected for the registry's
// snapshot slot (see scaledBounds).
func (b *base[H]) bounds() Bounds { return scaledBounds(b.rt.Bounds(), b.spec) }

// snapshotBounds, snapshotSteps, and snapshotDetail are the registry's
// instance view for kinds whose exported value is a single scalar read;
// Snapshot and Histogram override the first and the last.
func (b *base[H]) snapshotBounds() Bounds           { return b.bounds() }
func (b *base[H]) snapshotSteps() uint64            { return b.snap.Steps() }
func (b *base[H]) snapshotDetail() *HistogramDetail { return nil }

// handle binds slot i for a caller managing slot assignment itself.
func (b *base[H]) handle(i int) H {
	if i < 0 || i >= b.spec.procs {
		panic(fmt.Sprintf("approxobj: %s handle slot out of range", descriptorOf(b.spec.kind).name))
	}
	return b.bind(i)
}

// acquire borrows a slot (blocking) and leases its handle.
func (b *base[H]) acquire() (H, func()) { return b.lease(b.free.Acquire()) }

// tryAcquire is acquire without blocking; ok is false (and h the zero
// H) when every slot is held.
func (b *base[H]) tryAcquire() (h H, release func(), ok bool) {
	i, ok := b.free.TryAcquire()
	if !ok {
		return h, nil, false
	}
	h, release = b.lease(i)
	return h, release, true
}

// do runs f with a pooled handle, releasing it when f returns. It needs
// no release closure: the deferred method call is open-coded, so a Do
// allocates nothing.
func (b *base[H]) do(f func(H)) {
	i := b.free.Acquire()
	h, g := b.checkout(i)
	defer b.release(i, g)
	f(h)
}

// checkout hands out slot i's cached handle, building it on first use
// (safe without a lock — the pool hands each slot to one goroutine at a
// time, and releases happen-before the next acquire), and bumps the
// slot's lease generation to g, which the lease's release must present.
func (b *base[H]) checkout(i int) (h H, g uint64) {
	s := &b.slots[i]
	var zero H
	if s.h == zero {
		s.h = b.bind(i)
	}
	return s.h, s.gen.Add(1)
}

// release ends lease g of slot i: it flushes the handle, credits its
// steps since the slot's last release, and frees the slot. It succeeds
// only by advancing the slot's generation from g to g+1, so a release
// racing another release of the same lease, or a stale one surviving
// past a re-lease (the generation has moved past g for good), does
// nothing — it can neither credit the handle twice nor duplicate the
// slot in the free list.
func (b *base[H]) release(i int, g uint64) {
	s := &b.slots[i]
	if !s.gen.CompareAndSwap(g, g+1) {
		return
	}
	s.h.Flush()
	steps := s.h.Steps()
	b.retired.Add(steps - s.credited)
	s.credited = steps
	b.free.Release(i)
}

// lease checks out slot i for the public Acquire and TryAcquire, which
// must return the release as a func(): the closure wraps release, so it
// is idempotent, and it is the only allocation of an acquisition (Do
// skips it).
func (b *base[H]) lease(i int) (H, func()) {
	h, g := b.checkout(i)
	return h, func() { b.release(i, g) }
}

// Acquire borrows an exclusive handle from the counter's slot pool,
// blocking until a slot is free. The returned release function flushes
// any batched increments, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its
// slot — cost individual operations as a before/after delta.
func (c *Counter) Acquire() (CounterHandle, func()) { return c.acquire() }

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (c *Counter) TryAcquire() (h CounterHandle, release func(), ok bool) { return c.tryAcquire() }

// Do runs f with a pooled handle, releasing it (and flushing batched
// increments) when f returns. It blocks until a slot is free.
func (c *Counter) Do(f func(CounterHandle)) { c.do(func(h BatchedCounterHandle) { f(h) }) }

// Acquire borrows an exclusive handle from the register's slot pool,
// blocking until a slot is free. The returned release function flushes
// any elided writes, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its slot
// — cost individual operations as a before/after delta.
func (r *MaxRegister) Acquire() (MaxRegisterHandle, func()) { return r.acquire() }

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (r *MaxRegister) TryAcquire() (h MaxRegisterHandle, release func(), ok bool) {
	return r.tryAcquire()
}

// Do runs f with a pooled handle, releasing it (and flushing elided
// writes) when f returns. It blocks until a slot is free.
func (r *MaxRegister) Do(f func(MaxRegisterHandle)) { r.do(func(h BatchedMaxRegisterHandle) { f(h) }) }

// Acquire borrows an exclusive handle from the snapshot's slot pool,
// blocking until a slot is free: the handle is the single writer of the
// slot's component (discover which via Component). The returned release
// function flushes any elided component update, credits the handle's
// steps to the object's retired-step counter (see Registry snapshots),
// and returns the slot; it is idempotent. The handle must not be used
// after release. Steps() on a pooled handle is cumulative over every
// previous owner of its slot — cost individual operations as a
// before/after delta.
func (s *Snapshot) Acquire() (SnapshotHandle, func()) { return s.acquire() }

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (s *Snapshot) TryAcquire() (h SnapshotHandle, release func(), ok bool) { return s.tryAcquire() }

// Do runs f with a pooled handle, releasing it (and flushing any elided
// component update) when f returns. It blocks until a slot is free.
func (s *Snapshot) Do(f func(SnapshotHandle)) { s.do(func(h BatchedSnapshotHandle) { f(h) }) }

// Acquire borrows an exclusive handle from the histogram's slot pool,
// blocking until a slot is free. The returned release function flushes
// any buffered observations, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its
// slot — cost individual operations as a before/after delta.
func (h *Histogram) Acquire() (HistogramHandle, func()) { return h.acquire() }

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (h *Histogram) TryAcquire() (hh HistogramHandle, release func(), ok bool) { return h.tryAcquire() }

// Do runs f with a pooled handle, releasing it (and flushing buffered
// observations) when f returns. It blocks until a slot is free.
func (h *Histogram) Do(f func(HistogramHandle)) { h.do(func(hh BatchedHistogramHandle) { f(hh) }) }
