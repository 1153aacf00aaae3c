package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxobj/internal/satmath"
	"approxobj/internal/telemetry"
)

// This file is the windowed tier of the backend plane: an object becomes
// a small ring of plane instances ("epochs") rotated on a fixed period,
// so reads answer over the last d of mutations instead of
// since-creation. The construction reuses everything below it — each
// epoch is an ordinary kind object with its own shards, buffers, and
// (optionally) read-combiner tier — and everything above it: writers
// stamp into the current epoch through the kind's existing handle
// plumbing, and reads fold the live ring with the kind's existing
// Combine, so the per-epoch accuracy envelope carries over to the
// window with only the documented widenings (Add x epochs for
// sum-combines; a one-epoch truncation skew, the Window term of
// Bounds).
//
// # Rotation
//
// The ring holds `epochs` instances; a background rotator goroutine
// advances the sequence number every d/epochs. Rotation is
// install-then-publish: the fresh epoch is swapped into the ring slot
// the new sequence number maps to BEFORE the sequence number is
// published, so a writer that loads the new sequence number always
// finds the new epoch installed, and a writer holding the old one
// writes into the previous epoch — still live in the ring for
// epochs >= 2. Writes therefore land in the epoch current when the
// handle resolved the ring, or an adjacent newer one; never in an
// unreachable instance, and never lost from the live window. The
// evicted instance (from `epochs` rotations ago) is closed — its
// read-combiner goroutine, if any, stops — but stays readable for any
// reader that loaded its pointer just before the swap.
//
// # Handles
//
// A window handle caches one kind handle per ring slot, re-homing
// lazily: it rebinds a slot's handle when the installed epoch's
// sequence number changed, flushing the outgoing handle's buffered
// mutations into its own epoch first (they happened during that epoch's
// span, so that is where they belong — and for a live epoch they stay
// visible to windowed reads). The handle also flushes its previous
// write slot whenever the current ring slot moves, so at any moment at
// most ONE of its cached handles holds buffered mutations — which is
// why the Buffer term of the windowed envelope equals the per-epoch
// one, not epochs times it.
//
// # Reads
//
// A windowed read folds one combined read of every ring slot with the
// kind's Combine. Every live epoch holds a disjoint share of the
// window's mutations, so the same composition arguments as sharding
// apply: a sum of per-epoch k-multiplicative counts is
// k-multiplicative, per-epoch additive slack sums (Add x epochs), max
// and per-component merges widen nothing. The fold visits the ring
// racing rotation, so a read may miss the epoch being evicted and see
// the fresh one empty: at most one epoch (d/epochs) of truncation skew,
// reported as the Window term of Bounds.

// epochObj is what the ring needs from one epoch instance. Every kind
// object (*Counter, *MaxReg, *Snapshot, *Histogram) provides it — Handle
// itself, the rest through its embedded plane — so the ring binds,
// bounds, sizes, and closes epochs without per-kind glue.
type epochObj[H any] interface {
	Handle(i int) H
	Bounds() Bounds
	BaseObjects() uint64
	Close()
	// sink is the telemetry sink the epoch was built with (nil when
	// uninstrumented): rotations and handle re-homes are window-tier
	// events the per-epoch planes cannot see, so the ring reports them
	// into the same sink.
	sink() *telemetry.Sink
}

// epochHandle is what the ring needs from one epoch's handle. Every
// kind handle provides it through its embedded handleCore; ReadInto
// serves scalar kinds (which ignore dst) and vector kinds alike.
type epochHandle[V any] interface {
	ReadInto(dst V) V
	Flush()
	Steps() uint64
}

// wepoch is one ring entry: a kind object and the rotation sequence
// number under which it was installed.
type wepoch[T any] struct {
	seq uint64
	obj T
}

// window is the generic epoch ring. T is the kind object, H its handle
// type, V the combined-read value; the constraints supply every
// per-kind behaviour except the fold, which is the kind's Combine.
type window[T epochObj[H], H epochHandle[V], V any] struct {
	dur    time.Duration
	epochs int

	mk      func() (T, error) // builds one fresh epoch instance
	combine Combine[V]
	// sumCombine: the kind's Combine sums values, so per-epoch additive
	// slack accumulates over the live ring (counters; false for max,
	// per-component, and per-bucket folds, which partition instead).
	sumCombine bool

	tel *telemetry.Sink // the epochs' sink (see epochObj.sink)

	// seq is published AFTER the epoch for it is installed in the ring,
	// so ring[seq%epochs] always holds an instance at least as new as
	// seq.
	seq  atomic.Uint64
	ring []atomic.Pointer[wepoch[T]]

	mu     sync.Mutex // serializes rotate, reset, and close
	closed bool

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// newWindow builds the ring (all epochs pre-installed, so the very
// first read folds a full window of empty instances) and starts the
// rotator goroutine.
func newWindow[T epochObj[H], H epochHandle[V], V any](d time.Duration, epochs int, mk func() (T, error), combine Combine[V], sumCombine bool) (*window[T, H, V], error) {
	if d <= 0 {
		return nil, fmt.Errorf("shard: window duration must be > 0, got %v", d)
	}
	if epochs < 2 {
		return nil, fmt.Errorf("shard: window needs at least 2 epochs (1 would truncate the whole window on every rotation), got %d", epochs)
	}
	w := &window[T, H, V]{dur: d, epochs: epochs, mk: mk, combine: combine, sumCombine: sumCombine}
	w.ring = make([]atomic.Pointer[wepoch[T]], epochs)
	for j := 0; j < epochs; j++ {
		obj, err := w.mk()
		if err != nil {
			for i := 0; i < j; i++ {
				w.ring[i].Load().obj.Close()
			}
			return nil, err
		}
		w.ring[j].Store(&wepoch[T]{seq: uint64(j), obj: obj})
	}
	w.tel = w.ring[0].Load().obj.sink()
	w.seq.Store(uint64(epochs - 1))
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.run()
	return w, nil
}

// run is the rotator loop: one rotation every d/epochs.
func (w *window[T, H, V]) run() {
	defer close(w.done)
	t := time.NewTicker(w.dur / time.Duration(w.epochs))
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Rotate()
		}
	}
}

// Rotate installs a fresh epoch and evicts the oldest: install into the
// new sequence number's ring slot first, publish the sequence number
// second, close the evicted instance last. After Close it is a no-op
// (the window is frozen). A kind construction that cannot fail built
// the ring, so mk cannot fail here either; a failure is surfaced by
// keeping the current window (no rotation) rather than poisoning the
// ring. The rotator calls it every d/epochs; tests and manual epoch
// control call it directly, so the windowed conformance sweeps drive
// epochs by hand instead of sleeping through wall-clock rotations.
func (w *window[T, H, V]) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	fresh, err := w.mk()
	if err != nil {
		return
	}
	s := w.seq.Load() + 1
	old := w.ring[s%uint64(w.epochs)].Swap(&wepoch[T]{seq: s, obj: fresh})
	w.seq.Store(s)
	old.obj.Close()
	w.tel.Inc(telemetry.EvRotation, 0)
	w.tel.Trace(telemetry.TraceRotation, -1, s)
}

// Reset replaces every live epoch with a fresh instance — the
// go-metrics Snapshot(reset) idiom. It is NOT atomic with a preceding
// read: mutations racing the reset land in an epoch that is either
// kept (the tail of the replacement loop) or discarded with the window,
// exactly like mutations racing a rotation land on either side of it.
// After Close, Reset returns an error (the window is frozen).
func (w *window[T, H, V]) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("shard: Reset on a closed windowed object (the window is frozen)")
	}
	fresh := make([]T, w.epochs)
	for i := range fresh {
		obj, err := w.mk()
		if err != nil {
			for j := 0; j < i; j++ {
				fresh[j].Close()
			}
			return err
		}
		fresh[i] = obj
	}
	s := w.seq.Load()
	for i := 1; i <= w.epochs; i++ {
		ns := s + uint64(i)
		old := w.ring[ns%uint64(w.epochs)].Swap(&wepoch[T]{seq: ns, obj: fresh[i-1]})
		old.obj.Close()
	}
	w.seq.Store(s + uint64(w.epochs))
	return nil
}

// Close stops the rotator goroutine and every live epoch's background
// resources, freezing the window: no further aging, reads keep serving
// the frozen ring (they remain fully valid — per-epoch cached reads
// fall back to inline refreshes), writes keep landing in the frozen
// current epoch, and Reset returns an error. Idempotent.
func (w *window[T, H, V]) Close() {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for j := range w.ring {
		w.ring[j].Load().obj.Close()
	}
}

// Bounds composes the windowed envelope from the per-epoch one: Add
// widens by the epoch count iff the kind's Combine sums (per-epoch
// slack accumulates over the fold, exactly like per-shard slack under a
// sum), Buffer is unchanged (a handle holds buffered mutations in at
// most one epoch at a time — see the handle comment), Stale is
// unchanged (each epoch's cache is its own), and Window carries the
// one-epoch truncation skew d/epochs. Delta widens by the epoch count
// regardless of the combine (union bound: the windowed read is in range
// when every one of the `epochs` per-epoch combined reads is, whatever
// the fold), clamped at 1.
func (w *window[T, H, V]) Bounds() Bounds {
	b := w.ring[w.seq.Load()%uint64(w.epochs)].Load().obj.Bounds()
	if w.sumCombine {
		b.Add = satmath.Mul(b.Add, uint64(w.epochs))
	}
	if b.Delta > 0 {
		b.Delta = min(1, b.Delta*float64(w.epochs))
	}
	b.Window = w.dur / time.Duration(w.epochs)
	return b
}

// BaseObjects sums the base objects of every live epoch — the windowed
// object's space cost in the paper's model at this instant (rotation
// replaces epochs, so the total is steady-state, not cumulative).
func (w *window[T, H, V]) BaseObjects() uint64 {
	var total uint64
	for j := range w.ring {
		total += w.ring[j].Load().obj.BaseObjects()
	}
	return total
}

// windowCore is one cached per-ring-slot kind handle.
type windowCore[H any] struct {
	seq uint64
	h   H
	ok  bool
}

// windowHandle is the per-slot handle over the ring: cached kind
// handles per ring slot, lazy re-homing, and steps accounting across
// rebinds. Like every handle in this repository it must be used by a
// single goroutine; rotation happens on another goroutine but
// communicates only through the ring's atomics. The kinds' windowed
// handles embed it and add only their mutation method over cur.
type windowHandle[T epochObj[H], H epochHandle[V], V any] struct {
	w     *window[T, H, V]
	slot  int
	cores []windowCore[H]
	// lastWrite is the ring slot of the most recent mutation, so moving
	// to a new current slot flushes the previous one's buffer first:
	// buffered mutations live in at most one cached handle at a time.
	lastWrite int
	// retired accumulates the steps of rebound (dropped) cores, keeping
	// Steps monotone across epochs.
	retired uint64
	// scratch is the fold buffer for the non-first epochs' reads (vector
	// kinds; see ReadInto).
	scratch V
}

func newWindowHandle[T epochObj[H], H epochHandle[V], V any](w *window[T, H, V], slot int) windowHandle[T, H, V] {
	return windowHandle[T, H, V]{w: w, slot: slot, cores: make([]windowCore[H], w.epochs), lastWrite: -1}
}

// core returns the cached kind handle for ring slot j's installed epoch
// e, rebinding (flush old, bind new) when the slot was rotated under
// it.
func (h *windowHandle[T, H, V]) core(j int, e *wepoch[T]) H {
	c := &h.cores[j]
	if !c.ok || c.seq != e.seq {
		if c.ok {
			c.h.Flush()
			h.retired += c.h.Steps()
			h.w.tel.Inc(telemetry.EvRehome, h.slot)
		}
		c.h = e.obj.Handle(h.slot)
		c.seq = e.seq
		c.ok = true
	}
	return c.h
}

// cur resolves the current epoch's handle for a mutation, flushing the
// previous write slot when the current ring slot moved. The epoch
// loaded may be newer than the sequence number read (a rotation
// in-flight); either is live, so the mutation is never lost.
func (h *windowHandle[T, H, V]) cur() H {
	j := int(h.w.seq.Load() % uint64(h.w.epochs))
	if h.lastWrite >= 0 && h.lastWrite != j && h.cores[h.lastWrite].ok {
		h.cores[h.lastWrite].h.Flush()
	}
	h.lastWrite = j
	return h.core(j, h.w.ring[j].Load())
}

// Read folds one combined read of every live epoch with the kind's
// Combine. For vector kinds the result is a fresh slice (owned by the
// caller); reuse a buffer with ReadInto.
func (h *windowHandle[T, H, V]) Read() V {
	var zero V
	return h.ReadInto(zero)
}

// ReadInto is Read into a reused buffer (grown as needed; scalar kinds
// ignore it): the first epoch reads into dst, every later epoch into
// the handle's scratch buffer, so a steady-state windowed read through
// one handle allocates nothing.
func (h *windowHandle[T, H, V]) ReadInto(dst V) V {
	dst = h.core(0, h.w.ring[0].Load()).ReadInto(dst)
	for j := 1; j < h.w.epochs; j++ {
		h.scratch = h.core(j, h.w.ring[j].Load()).ReadInto(h.scratch)
		dst = h.w.combine(dst, h.scratch)
	}
	return dst
}

// Flush publishes every cached epoch handle's buffered mutations.
func (h *windowHandle[T, H, V]) Flush() {
	for j := range h.cores {
		if h.cores[j].ok {
			h.cores[j].h.Flush()
		}
	}
}

// Steps returns the handle's cumulative shared-memory steps: retired
// cores plus every live cached handle. Monotone across rebinds (fresh
// epoch handles start at zero and retired only grows).
func (h *windowHandle[T, H, V]) Steps() uint64 {
	s := h.retired
	for j := range h.cores {
		if h.cores[j].ok {
			s += h.cores[j].h.Steps()
		}
	}
	return s
}

// WindowedCounter is a counter over a rotating epoch ring: Incs land in
// the current epoch, Reads sum the live ring. Each epoch is a full
// *Counter (shards, batching, optional read cache) built from the same
// configuration.
type WindowedCounter struct {
	*window[*Counter, *Handle, uint64]
}

// NewWindowedCounter builds a windowed counter: a ring of `epochs`
// instances of New(n, k, opts...) rotated every d/epochs.
func NewWindowedCounter(n int, k uint64, d time.Duration, epochs int, opts ...Option) (*WindowedCounter, error) {
	w, err := newWindow[*Counter, *Handle](d, epochs, func() (*Counter, error) { return New(n, k, opts...) }, satmath.Add, true)
	if err != nil {
		return nil, err
	}
	return &WindowedCounter{w}, nil
}

// Handle binds process slot i to the windowed counter.
func (c *WindowedCounter) Handle(i int) *WCounterHandle {
	return &WCounterHandle{newWindowHandle(c.window, i)}
}

// WCounterHandle is one process's view of a windowed counter. It
// satisfies the same contract as *Handle (Inc, Read, Steps, Flush).
type WCounterHandle struct {
	windowHandle[*Counter, *Handle, uint64]
}

// Inc adds one to the current epoch.
func (h *WCounterHandle) Inc() { h.cur().Inc() }

// WindowedMaxReg is a max register over a rotating epoch ring: Writes
// land in the current epoch, Reads take the max over the live ring —
// the maximum over the last window, a running high-water mark that
// expires.
type WindowedMaxReg struct {
	*window[*MaxReg, *MaxRegHandle, uint64]
}

// NewWindowedMaxReg builds a windowed max register: a ring of `epochs`
// instances of NewMaxReg(n, k, opts...) rotated every d/epochs.
func NewWindowedMaxReg(n int, k uint64, d time.Duration, epochs int, opts ...Option) (*WindowedMaxReg, error) {
	w, err := newWindow[*MaxReg, *MaxRegHandle](d, epochs, func() (*MaxReg, error) { return NewMaxReg(n, k, opts...) }, maxOf, false)
	if err != nil {
		return nil, err
	}
	return &WindowedMaxReg{w}, nil
}

// Handle binds process slot i to the windowed register.
func (m *WindowedMaxReg) Handle(i int) *WMaxRegHandle {
	return &WMaxRegHandle{newWindowHandle(m.window, i)}
}

// WMaxRegHandle is one process's view of a windowed max register. It
// satisfies the same contract as *MaxRegHandle (Write, Read, Steps,
// Flush).
type WMaxRegHandle struct {
	windowHandle[*MaxReg, *MaxRegHandle, uint64]
}

// Write records v in the current epoch.
func (h *WMaxRegHandle) Write(v uint64) { h.cur().Write(v) }

// WindowedSnapshot is a single-writer snapshot over a rotating epoch
// ring. Updates land in the current epoch; a windowed Scan merges the
// live ring per component with the snapshot's usual element-wise max,
// so each component reads as its high-water mark over the window (a
// component untouched for a full window reads zero).
type WindowedSnapshot struct {
	*window[*Snapshot, *SnapshotHandle, []uint64]
}

// NewWindowedSnapshot builds a windowed snapshot: a ring of `epochs`
// instances of NewSnapshot(n, k, opts...) rotated every d/epochs.
func NewWindowedSnapshot(n int, k uint64, d time.Duration, epochs int, opts ...Option) (*WindowedSnapshot, error) {
	w, err := newWindow[*Snapshot, *SnapshotHandle](d, epochs, func() (*Snapshot, error) { return NewSnapshot(n, k, opts...) }, mergeComponents, false)
	if err != nil {
		return nil, err
	}
	return &WindowedSnapshot{w}, nil
}

// Handle binds process slot i to the windowed snapshot: the single
// writer of component i.
func (s *WindowedSnapshot) Handle(i int) *WSnapshotHandle {
	return &WSnapshotHandle{newWindowHandle(s.window, i)}
}

// WSnapshotHandle is one process's view of a windowed snapshot. It
// satisfies the same contract as *SnapshotHandle (Update, Scan,
// Component, Steps, Flush).
type WSnapshotHandle struct {
	windowHandle[*Snapshot, *SnapshotHandle, []uint64]
}

// Update sets this handle's component in the current epoch.
func (h *WSnapshotHandle) Update(v uint64) { h.cur().Update(v) }

// Scan merges one scan of every live epoch per component (element-wise
// max: the component's high-water mark over the window). The slice is
// fresh (owned by the caller).
func (h *WSnapshotHandle) Scan() []uint64 { return h.Read() }

// ScanInto is Scan into a reused buffer (grown as needed; a nil dst
// behaves like Scan).
func (h *WSnapshotHandle) ScanInto(dst []uint64) []uint64 { return h.ReadInto(dst) }

// Component returns the index of the component this handle writes.
func (h *WSnapshotHandle) Component() int { return h.slot }

// WindowedHistogram is a histogram over a rotating epoch ring:
// observations land in the current epoch, bucket reads sum the live
// ring per bucket — so every query (Count, Quantile, Rank, CDF at the
// public layer) answers over the last window of observations.
type WindowedHistogram struct {
	*window[*Histogram, *HistHandle, []uint64]
}

// NewWindowedHistogram builds a windowed histogram: a ring of `epochs`
// instances of NewHistogram(n, k, buckets, opts...) rotated every
// d/epochs.
func NewWindowedHistogram(n int, k uint64, buckets int, d time.Duration, epochs int, opts ...Option) (*WindowedHistogram, error) {
	w, err := newWindow[*Histogram, *HistHandle](d, epochs, func() (*Histogram, error) { return NewHistogram(n, k, buckets, opts...) }, sumBuckets, false)
	if err != nil {
		return nil, err
	}
	return &WindowedHistogram{w}, nil
}

// Handle binds process slot i to the windowed histogram.
func (hg *WindowedHistogram) Handle(i int) *WHistHandle {
	return &WHistHandle{newWindowHandle(hg.window, i)}
}

// WHistHandle is one process's view of a windowed histogram. It
// satisfies the same contract as *HistHandle (Add, AddN, Buckets,
// Steps, Flush).
type WHistHandle struct {
	windowHandle[*Histogram, *HistHandle, []uint64]
}

// Add adds one observation to bucket b of the current epoch.
func (h *WHistHandle) Add(b int) { h.AddN(b, 1) }

// AddN adds d observations to bucket b of the current epoch.
func (h *WHistHandle) AddN(b int, d uint64) { h.cur().AddN(b, d) }

// Buckets returns the per-bucket counts summed over the live ring. The
// slice is fresh (owned by the caller).
func (h *WHistHandle) Buckets() []uint64 { return h.Read() }

// BucketsInto is Buckets into a reused buffer (grown as needed; a nil
// dst behaves like Buckets).
func (h *WHistHandle) BucketsInto(dst []uint64) []uint64 { return h.ReadInto(dst) }
