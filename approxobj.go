// Package approxobj implements deterministic approximate shared objects —
// k-multiplicative-accurate counters and max registers, single-writer
// atomic snapshots, and rounded-bucket histograms with quantile queries —
// together with the exact objects they are built from and compared
// against, reproducing "Upper and Lower Bounds for Deterministic
// Approximate Objects" (Hendler, Khattabi, Milani, Travers; ICDCS 2021).
//
// The paper describes a family of objects trading accuracy for steps, and
// the API exposes it as one: a spec built from orthogonal functional
// options names any family member, and every object reports the same
// universal accuracy envelope (Bounds).
//
//	// The paper's Algorithm 1: k-multiplicative counter, sharded 4 ways.
//	c, err := approxobj.NewCounter(
//		approxobj.WithProcs(16),
//		approxobj.WithAccuracy(approxobj.Multiplicative(4)),
//		approxobj.WithShards(4),
//		approxobj.WithBatch(16),
//	)
//
//	// The paper's Algorithm 2: k-multiplicative m-bounded max register.
//	r, err := approxobj.NewMaxRegister(
//		approxobj.WithProcs(16),
//		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
//		approxobj.WithBound(1<<20),
//	)
//
//	// A sharded single-writer snapshot with component elision.
//	s, err := approxobj.NewSnapshot(
//		approxobj.WithProcs(8),
//		approxobj.WithShards(2),
//		approxobj.WithBatch(16),
//	)
//
//	// An approximate histogram: Observe values, query Quantile/Rank/CDF
//	// with deterministic factor-k value error (MVY rounded buckets).
//	h, err := approxobj.NewHistogram(
//		approxobj.WithProcs(8),
//		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
//		approxobj.WithShards(4),
//		approxobj.WithBatch(64),
//	)
//
// Accuracy (Exact, Additive(k), Multiplicative(k), Randomized(k, delta)),
// process count, shard count, batching, and value bounds compose freely;
// the constructor validates the combination in one place (e.g. k >=
// sqrt(n) for multiplicative counters, bounds only on max registers) and
// returns a descriptive error otherwise. A k-multiplicative-accurate object allows
// reads to err by a multiplicative factor k — a counter read may return
// any x with v/k <= x <= v*k for the true count v — which buys steep
// complexity improvements: O(1) amortized counter steps for k >= sqrt(n)
// versus Omega(n) exact, and O(min(log2 log_k m, n)) max-register steps
// versus Theta(log m) exact.
//
// # The backend plane
//
// Every object family runs on one sharded runtime (internal/shard),
// registered in a backend table that drives spec validation, registry
// dispatch, and envelope composition. A kind is two policies — how a
// read combines the S per-shard reads (sum, max, per-component merge)
// and how a handle buffers mutations locally (count batching, write
// elision, component elision) — plus its set of per-shard backends.
// Kinds returns the table; adding object family N+1 is a registration,
// not a new code path.
//
// # Process handles
//
// The algorithms come from the asynchronous shared-memory model with n
// named processes, each holding persistent local state (scan positions,
// unannounced counts). Each concurrent goroutine therefore binds to a
// distinct process slot. The preferred way is the built-in handle pool —
// Acquire returns an exclusive handle and a release function, Do wraps a
// function call in an acquire/release pair — which enforces the "one
// handle per goroutine" invariant by construction and flushes buffered
// mutations (batched increments, elided writes) on release. Handle(i)
// remains for callers that manage slot assignment themselves; a handle
// must never be shared between goroutines. The objects themselves are
// safe for fully concurrent use through distinct slots and are wait-free:
// every operation finishes in a bounded number of its own steps
// regardless of other goroutines stalling.
//
// # Registry
//
// A Registry names objects ("requests", "peak-queue-depth", ...) and takes
// atomic snapshots of value, envelope, and cumulative steps per object,
// feeding telemetry and export scenarios; see examples/registry.
//
// All implementations are instrumented: handle steps are counted, which
// the benchmark harness (cmd/approxbench) uses to reproduce the paper's
// step complexity bounds. The spec surface (NewCounter, NewMaxRegister,
// NewSnapshot, NewHistogram with options) is the only construction path;
// the pre-spec per-family constructors were removed in PR 6.
package approxobj

import (
	"fmt"
	"sync/atomic"

	"approxobj/internal/satmath"
	"approxobj/internal/shard"
)

// CounterHandle is one process's view of a shared counter. Inc adds one;
// Read returns the (possibly approximate) number of Incs linearized before
// it. A handle is not safe for concurrent use; acquire one per goroutine.
type CounterHandle interface {
	Inc()
	Read() uint64
	// Steps returns the number of shared-memory primitive operations this
	// handle's process has performed (for step-complexity measurements).
	Steps() uint64
}

// MaxRegisterHandle is one process's view of a shared max register.
type MaxRegisterHandle interface {
	// Write records v; Read returns (an approximation of) the maximum
	// value written by any handle so far.
	Write(v uint64)
	Read() uint64
	Steps() uint64
}

// BatchedCounterHandle is a CounterHandle whose increments may be buffered
// locally; Flush publishes any buffered increments. Every counter handle
// implements it — Flush is a no-op on unbatched (B = 1) counters, and
// pooled handles flush automatically on release — so type assertions on
// it cannot fail for handles of this package's counters.
type BatchedCounterHandle interface {
	CounterHandle
	Flush()
}

// BatchedMaxRegisterHandle is a MaxRegisterHandle whose writes may be
// elided locally (see WithBatch); Flush publishes the highest elided
// value. Every max-register handle implements it — Flush is a no-op when
// nothing is pending, and pooled handles flush automatically on release —
// so type assertions on it cannot fail for handles of this package's max
// registers.
type BatchedMaxRegisterHandle interface {
	MaxRegisterHandle
	Flush()
}

// counterDescriptor registers the counter family in the backend-plane
// table: reads sum the shards, handles batch increment counts, and the
// Multiplicative backend carries Algorithm 1's k >= sqrt(n) precondition.
var counterDescriptor = &kindDescriptor{
	kind:   KindCounter,
	name:   "counter",
	plural: "counters",

	policy:   shard.CounterPolicyRow(),
	envelope: "Mult unchanged; Add widens to S·k; Buffer = (B-1)·n",
	scenario: "E12",

	staleTerm:    "Read may miss Incs of the last maxStale (window opens maxStale early)",
	readScenario: "E17",

	windowTerm:     "Read sums the Incs of the last d (Add widens to epochs·S·k; one epoch of edge skew)",
	windowScenario: "E18",

	accuracies: map[accMode]func(s Spec) error{
		accExact:          nil,
		accAdditive:       nil,
		accMultiplicative: checkMultCounter,
		// Randomized has no per-kind precondition beyond the accuracy
		// table's k >= 2 and 0 < delta < 1: Morris shards carry no
		// k >= sqrt(n) constraint — probability, not awareness
		// propagation, is doing the work.
		accRandomized: nil,
	},
	frontierScenario: "E19",
	build:            func(s Spec) (instance, error) { return newCounter(s) },
}

// checkMultCounter mirrors core.NewMultCounter's precondition (defense in
// depth, via the shared satmath.SquareAtLeast predicate): checking at the
// spec level gives spec-level error messages (including the
// snapshot-slot hint) before any shard is built.
func checkMultCounter(s Spec) error {
	k, n := s.acc.k, uint64(s.totalProcs())
	if !satmath.SquareAtLeast(k, n) {
		if int(n) != s.procs {
			// Spell out the internal slots so "n" in the message is not a
			// mystery to a caller who only passed WithProcs(procs).
			parts := fmt.Sprintf("%d caller slots", s.procs)
			if s.snapshotSlot {
				parts += " + 1 registry snapshot slot"
			}
			if s.readStale > 0 {
				parts += " + 1 read-cache combiner slot"
			}
			return fmt.Errorf("approxobj: multiplicative accuracy needs k >= sqrt(n): k=%d, n=%d (%s)", k, n, parts)
		}
		return fmt.Errorf("approxobj: multiplicative accuracy needs k >= sqrt(n): k=%d, n=%d", k, n)
	}
	return nil
}

// randomizedSeed spaces the base seeds of successive randomized
// counters: each object's backend derives per-shard (and, under a
// window, per-epoch) seeds by counting up from its base, so bases are
// spaced far apart. Construction order alone determines the seeds — no
// wall clock — keeping fixed-workload runs reproducible.
var randomizedSeed atomic.Int64

// counterBackend picks the sharded runtime's per-shard backend, and the
// k it is built with, from a counter spec's accuracy. For Randomized the
// user's delta is a whole-object budget, split evenly over the S shards
// and (for windowed counters) the epoch ring: the plane recomposes
// per-shard deltas by union bound (x S) and the window by epoch count
// (x epochs), so the Bounds an object reports carries the delta the
// user asked for, not a multiple of it.
func counterBackend(s Spec) (k uint64, be shard.Backend) {
	switch s.acc.mode {
	case accAdditive:
		return s.acc.k, shard.AdditiveBackend()
	case accMultiplicative:
		return s.acc.k, shard.MultBackend()
	case accRandomized:
		per := s.acc.delta / float64(s.shards*max(1, s.windowEpochs))
		return s.acc.k, shard.RandomizedBackend(per, randomizedSeed.Add(1)*(1<<32))
	default:
		return 1, shard.AACHBackend()
	}
}

// Counter is any member of the counter family — exact, k-additive, or
// k-multiplicative, optionally sharded, batched, and windowed — built
// by NewCounter from a spec. All members run on the sharded runtime (an
// unsharded counter is the S=1 case; a windowed one is a rotating ring
// of plane instances) and report their accuracy envelope via Bounds.
type Counter struct {
	base[BatchedCounterHandle]
}

var _ instance = (*Counter)(nil)

// NewCounter builds the counter the options describe. Defaults: one
// process slot, Exact() accuracy, unsharded, unbuffered. Option
// combinations are validated as a whole; e.g. Multiplicative(k) requires
// k >= 2 and k >= sqrt(n), and WithBound is rejected (counters are
// unbounded).
func NewCounter(opts ...Option) (*Counter, error) {
	spec, err := newSpec(KindCounter, opts, false)
	if err != nil {
		return nil, err
	}
	return newCounter(spec)
}

func newCounter(spec Spec) (*Counter, error) {
	k, be := counterBackend(spec)
	sopts := append(spec.shardOptions(), shard.WithBackend(be))
	c := &Counter{}
	if spec.Windowed() {
		rt, err := shard.NewWindowedCounter(spec.totalProcs(), k, spec.windowDur, spec.windowEpochs, sopts...)
		if err != nil {
			return nil, err
		}
		c.init(spec, rt, func(i int) BatchedCounterHandle { return rt.Handle(i) })
		return c, nil
	}
	rt, err := shard.New(spec.totalProcs(), k, sopts...)
	if err != nil {
		return nil, err
	}
	c.init(spec, rt, func(i int) BatchedCounterHandle { return rt.Handle(i) })
	return c, nil
}

// K returns the accuracy parameter (1 for exact counters).
func (c *Counter) K() uint64 { return c.spec.acc.K() }

// Bounds returns the counter's read envelope: a Read may return any x
// with (v-Buffer)/Mult - Add <= x <= Mult*v + Add for the true count v,
// where Buffer = (B-1)*N for WithBatch(B). Exact counters report the
// zero envelope. With WithReadCache the Stale term carries the
// staleness window: the envelope then holds against some true count in
// the regularity window opened Stale before the read began. With
// WithWindow(d, n) the true count is the count of the live window and
// the Window term carries the one-epoch truncation skew d/n; the
// additive slack sums over the ring (Add x n). Randomized counters
// additionally carry the Delta term: the whole envelope holds only with
// probability >= 1-Delta per read, with Delta the delta passed to
// Randomized (budget-split over shards and epochs, then recomposed).
func (c *Counter) Bounds() Bounds { return c.bounds() }

// Snapshot reads the counter through a pooled handle and, when reset
// is true, resets the window afterwards — the go-metrics read idiom
// ("read and restart the interval"). The read and the reset are two
// steps, not one atomic action: Incs racing Snapshot land on either
// side of the reset. reset = true on a cumulative (non-windowed)
// counter returns the value alongside the Reset error.
func (c *Counter) Snapshot(reset bool) (uint64, error) {
	var v uint64
	c.Do(func(h CounterHandle) { v = h.Read() })
	if reset {
		return v, c.Reset()
	}
	return v, nil
}

// scaledBounds adjusts a runtime envelope for the registry's snapshot
// slot on kinds whose Buffer term scales with the slot count: the shard
// runtime sizes Buffer over every allocated slot, but the snapshot slot
// only ever reads — it can never hold buffered mutations, so the
// documented (B-1)*n over caller slots holds (the same per-handle
// headroom times slot count that plane.Bounds composes, just over the
// caller-visible slots). Every kind's Bounds routes through it (a no-op
// when the kind's Buffer term is per-handle), so a future kind
// registered with BufferScalesWithProcs gets the correction for free.
func scaledBounds(b Bounds, spec Spec) Bounds {
	if spec.snapshotSlot && descriptorOf(spec.kind).policy.BufferScalesWithProcs {
		b.Buffer = satmath.Mul(uint64(spec.batch-1), uint64(spec.procs))
	}
	return b
}

// Handle binds process slot i (0 <= i < N) to the counter, for callers
// managing slot assignment themselves. Each concurrent goroutine must use
// its own slot; do not mix Handle(i) with Acquire/Do on the same slot
// range. The returned handle implements BatchedCounterHandle.
func (c *Counter) Handle(i int) CounterHandle { return c.handle(i) }

// snapshotValue reads the counter through the registry's snapshot slot
// (the rest of the instance view comes from base); see
// Registry.Snapshot.
func (c *Counter) snapshotValue() uint64 { return c.snap.Read() }

// maxRegisterDescriptor registers the max-register family in the
// backend-plane table: reads take the max over shards (no envelope
// widening), handles elide writes, and WithBound selects the bounded
// constructions.
var maxRegisterDescriptor = &kindDescriptor{
	kind:   KindMaxRegister,
	name:   "max register",
	plural: "max registers",

	policy:   shard.MaxRegPolicyRow(),
	envelope: "Mult unchanged (independent of S); Buffer = B-1, per handle",
	scenario: "E14",

	staleTerm:    "Read may trail the maximum by writes of the last maxStale",
	readScenario: "E17",

	windowTerm:     "Read is the maximum written in the last d (an expiring high-water mark; no widening)",
	windowScenario: "E18",

	accuracies: map[accMode]func(s Spec) error{
		accExact:          nil,
		accMultiplicative: nil, // k >= 2 is the generic multiplicative check
	},
	allowBound:       true,
	boundLimitsBatch: true, // the batch is a value window: B >= m swallows every write
	build:            func(s Spec) (instance, error) { return newMaxRegister(s) },
}

// maxRegBackend picks the sharded runtime's per-shard backend, and the
// k it is built with, from a max-register spec's accuracy and bound.
func maxRegBackend(s Spec) (k uint64, be shard.MaxRegBackend) {
	switch {
	case s.acc.IsExact() && s.boundSet:
		return 1, shard.ExactBoundedMaxBackend(s.bound)
	case s.acc.IsExact():
		return 1, shard.ExactMaxBackend()
	case s.boundSet:
		return s.acc.k, shard.MultBoundedMaxBackend(s.bound)
	default:
		return s.acc.k, shard.MultMaxBackend()
	}
}

// MaxRegister is any member of the max-register family — exact or
// k-multiplicative, bounded or unbounded, optionally sharded, with
// write elision, and windowed — built by NewMaxRegister from a spec.
// Like Counter, all members run on the unified sharded runtime (an
// unsharded register is the S=1 case; a windowed one — an expiring
// high-water mark — is a rotating ring of plane instances) and report
// their accuracy envelope via Bounds.
type MaxRegister struct {
	base[BatchedMaxRegisterHandle]
}

var _ instance = (*MaxRegister)(nil)

// NewMaxRegister builds the max register the options describe. Defaults:
// one process slot, Exact() accuracy, unbounded, unsharded, no elision.
// WithBound(m) selects the m-bounded construction (Algorithm 2 when
// combined with Multiplicative(k)); WithShards(S) spreads writes over S
// independent shards whose max readers combine with no envelope
// widening; WithBatch(B) elides writes within B-1 of a handle's last
// flushed value.
func NewMaxRegister(opts ...Option) (*MaxRegister, error) {
	spec, err := newSpec(KindMaxRegister, opts, false)
	if err != nil {
		return nil, err
	}
	return newMaxRegister(spec)
}

func newMaxRegister(spec Spec) (*MaxRegister, error) {
	k, be := maxRegBackend(spec)
	mopts := append(spec.shardOptions(), shard.WithBackend(be))
	r := &MaxRegister{}
	if spec.Windowed() {
		rt, err := shard.NewWindowedMaxReg(spec.totalProcs(), k, spec.windowDur, spec.windowEpochs, mopts...)
		if err != nil {
			return nil, err
		}
		r.init(spec, rt, func(i int) BatchedMaxRegisterHandle { return rt.Handle(i) })
		return r, nil
	}
	rt, err := shard.NewMaxReg(spec.totalProcs(), k, mopts...)
	if err != nil {
		return nil, err
	}
	r.init(spec, rt, func(i int) BatchedMaxRegisterHandle { return rt.Handle(i) })
	return r, nil
}

// K returns the accuracy parameter (1 for exact registers).
func (r *MaxRegister) K() uint64 { return r.spec.acc.K() }

// Bound returns the value bound m (writes must be < m), or 0 for
// unbounded registers.
func (r *MaxRegister) Bound() uint64 { return r.spec.bound }

// Bounds returns the register's read envelope: a Read may return any x
// with (v-Buffer)/Mult <= x <= Mult*v for the true maximum v, where
// Buffer = B-1 for WithBatch(B) (per handle — the maximum lives in one
// handle, so elision headroom does not scale with N or S). Exact
// unbatched registers report the zero envelope. With WithReadCache the
// Stale term carries the staleness window of cached reads. With
// WithWindow(d, n) the true maximum is the maximum of the live window
// (an expiring high-water mark) and the Window term carries the
// one-epoch truncation skew d/n; nothing else widens.
func (r *MaxRegister) Bounds() Bounds { return r.bounds() }

// Snapshot reads the register through a pooled handle and, when reset
// is true, resets the window afterwards (see Counter.Snapshot for the
// two-step, non-atomic contract).
func (r *MaxRegister) Snapshot(reset bool) (uint64, error) {
	var v uint64
	r.Do(func(h MaxRegisterHandle) { v = h.Read() })
	if reset {
		return v, r.Reset()
	}
	return v, nil
}

// Handle binds process slot i (0 <= i < N) to the register, for callers
// managing slot assignment themselves. Each concurrent goroutine must use
// its own slot; do not mix Handle(i) with Acquire/Do on the same slot
// range. The returned handle implements BatchedMaxRegisterHandle.
func (r *MaxRegister) Handle(i int) MaxRegisterHandle { return r.handle(i) }

func (r *MaxRegister) snapshotValue() uint64 { return r.snap.Read() }
