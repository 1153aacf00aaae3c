package approxobj

import (
	"approxobj/internal/satmath"
	"approxobj/internal/shard"
)

// This file is the third object family on the backend plane — the
// single-writer atomic snapshot — and the proof that a new kind is a
// registration, not a fork: the table row below plus the thin wrappers
// here are all it takes to get spec validation, pooled handles, registry
// membership, and the universal envelope.

// SnapshotHandle is one process's view of a shared single-writer
// snapshot: the exclusive writer of its own component and a scanner of
// all N components. A handle is not safe for concurrent use; acquire one
// per goroutine.
type SnapshotHandle interface {
	// Update sets this handle's component to v (last write wins).
	Update(v uint64)
	// Scan returns a coherent view of all N components, freshly
	// allocated. Each component obeys the object's Bounds against its
	// own true value.
	Scan() []uint64
	// ScanInto is Scan into a reused buffer: dst is grown (or allocated,
	// if nil) as needed and filled with the view, so steady-state
	// scanners reuse one buffer instead of allocating per scan. A nil
	// dst behaves like Scan.
	ScanInto(dst []uint64) []uint64
	// Component returns the index of the component this handle writes —
	// with pooled handles the slot is chosen by the pool, so writers
	// discover their component here.
	Component() int
	Steps() uint64
}

// BatchedSnapshotHandle is a SnapshotHandle whose component updates may
// be elided locally (see WithBatch); Flush publishes the pending elided
// value. Every snapshot handle implements it — Flush is a no-op when
// nothing is pending, and pooled handles flush automatically on release —
// so type assertions on it cannot fail for handles of this package's
// snapshots.
type BatchedSnapshotHandle interface {
	SnapshotHandle
	Flush()
}

// snapshotDescriptor registers the snapshot family in the backend-plane
// table: scans merge the shards per component (no envelope widening —
// every component lives in exactly one shard), and handles elide
// component updates inside the window above their last flushed value.
var snapshotDescriptor = &kindDescriptor{
	kind:   KindSnapshot,
	name:   "snapshot",
	plural: "snapshots",

	policy:   shard.SnapshotPolicyRow(),
	envelope: "exact per component (independent of S); Buffer = B-1, per component",
	scenario: "E15",

	staleTerm:    "Scan may trail each component by updates of the last maxStale",
	readScenario: "E17",

	windowTerm:     "Scan reads each component's high-water mark over the last d (max across epochs; untouched components expire to 0)",
	windowScenario: "E18",

	accuracies: map[accMode]func(s Spec) error{
		accExact: nil,
	},
	build: func(s Spec) (instance, error) { return newSnapshot(s) },
}

// Snapshot is the single-writer atomic snapshot family — the classic
// AADGMS construction, optionally sharded and with component elision —
// built by NewSnapshot from a spec. Process slot i is the single writer
// of component i (N slots = N components); any handle scans all
// components. Like the other families it runs on the unified sharded
// runtime and reports its accuracy envelope via Bounds, which applies
// per component.
type Snapshot struct {
	base[BatchedSnapshotHandle]
	snapBuf []uint64 // snap's reused scan buffer (serialized by the registry's per-entry snapMu)
}

var _ instance = (*Snapshot)(nil)

// NewSnapshot builds the snapshot the options describe. Defaults: one
// process slot (= one component), Exact() accuracy, unsharded,
// unbuffered. WithShards(S) spreads component updates over S independent
// shards whose per-component merge widens nothing; WithBatch(B) elides
// updates within B-1 above a component's last flushed value (downward
// moves always write through), so scans may trail each component by at
// most B-1 and never overstate it.
func NewSnapshot(opts ...Option) (*Snapshot, error) {
	spec, err := newSpec(KindSnapshot, opts, false)
	if err != nil {
		return nil, err
	}
	return newSnapshot(spec)
}

func newSnapshot(spec Spec) (*Snapshot, error) {
	sopts := spec.shardOptions()
	s := &Snapshot{}
	n := spec.procs
	if spec.Windowed() {
		rt, err := shard.NewWindowedSnapshot(spec.totalProcs(), spec.acc.K(), spec.windowDur, spec.windowEpochs, sopts...)
		if err != nil {
			return nil, err
		}
		s.init(spec, rt, func(i int) BatchedSnapshotHandle { return snapshotSlotHandle{h: rt.Handle(i), n: n} })
		return s, nil
	}
	rt, err := shard.NewSnapshot(spec.totalProcs(), spec.acc.K(), sopts...)
	if err != nil {
		return nil, err
	}
	s.init(spec, rt, func(i int) BatchedSnapshotHandle { return snapshotSlotHandle{h: rt.Handle(i), n: n} })
	return s, nil
}

// Components returns the number of caller-visible components (= N).
func (s *Snapshot) Components() int { return s.spec.procs }

// Bounds returns the snapshot's per-component read envelope: each
// scanned component x_i may be any value with v_i - Buffer <= x_i <= v_i
// for its true value v_i, where Buffer = B-1 for WithBatch(B) (per
// component — components are disjoint across handles, so the headroom
// scales with neither N nor S). Unbatched snapshots report the zero
// envelope. With WithReadCache the Stale term carries the staleness
// window: each scanned component then obeys its envelope against some
// true value in the regularity window opened Stale before the scan
// began. With WithWindow(d, n) each scanned component is its high-water
// mark over the live window (max across epochs, so untouched components
// expire to 0) and the Window term carries the one-epoch truncation
// skew d/n; the per-component envelope does not widen (max-combine).
func (s *Snapshot) Bounds() Bounds { return s.bounds() }

// Snapshot scans the components through a pooled handle and, when reset
// is true, resets the window afterwards (see Counter.Snapshot for the
// two-step, non-atomic contract).
func (s *Snapshot) Snapshot(reset bool) ([]uint64, error) {
	var out []uint64
	s.Do(func(h SnapshotHandle) { out = h.Scan() })
	if reset {
		return out, s.Reset()
	}
	return out, nil
}

// Handle binds process slot i (0 <= i < N) to the snapshot, for callers
// managing slot assignment themselves: the returned handle is the single
// writer of component i. Each concurrent goroutine must use its own
// slot; do not mix Handle(i) with Acquire/Do on the same slot range. The
// returned handle implements BatchedSnapshotHandle.
func (s *Snapshot) Handle(i int) SnapshotHandle { return s.handle(i) }

// snapshotSlotHandle adapts a runtime snapshot handle to the public
// interface, truncating scans to the caller-visible components (a
// registry-owned snapshot holds one extra, never-written slot for
// Registry.Snapshot reads).
type snapshotSlotHandle struct {
	h BatchedSnapshotHandle // the runtime's handle, scanning every slot
	n int
}

var _ BatchedSnapshotHandle = snapshotSlotHandle{}

func (h snapshotSlotHandle) Update(v uint64) { h.h.Update(v) }
func (h snapshotSlotHandle) Scan() []uint64  { return h.h.Scan()[:h.n] }
func (h snapshotSlotHandle) Component() int  { return h.h.Component() }
func (h snapshotSlotHandle) Steps() uint64   { return h.h.Steps() }
func (h snapshotSlotHandle) Flush()          { h.h.Flush() }

func (h snapshotSlotHandle) ScanInto(dst []uint64) []uint64 {
	// The runtime scans all slots (including a registry-reserved one);
	// the caller sees the first n. dst grows to the runtime width once
	// and is reused from then on.
	return h.h.ScanInto(dst)[:h.n]
}

// snapshotValue sums the caller-visible components (saturating), the
// scalar the registry exports for this kind; see Registry.Snapshot.
func (s *Snapshot) snapshotValue() uint64 {
	s.snapBuf = s.snap.ScanInto(s.snapBuf)
	var sum uint64
	for _, v := range s.snapBuf {
		sum = satmath.Add(sum, v)
	}
	return sum
}

// snapshotBounds widens the per-component envelope to one that bounds
// the exported component SUM: every written component can trail by up to
// Buffer, so the sum can trail by Buffer per caller slot. This keeps the
// (Value, Bounds) pair in an ObjectSnapshot self-consistent for
// kind-agnostic telemetry consumers.
func (s *Snapshot) snapshotBounds() Bounds {
	b := s.Bounds()
	b.Buffer = satmath.Mul(b.Buffer, uint64(s.spec.procs))
	return b
}
