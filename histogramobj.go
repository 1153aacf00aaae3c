package approxobj

import (
	"fmt"

	"approxobj/internal/histogram"
	"approxobj/internal/shard"
)

// This file is the fourth object family on the backend plane — the
// approximate histogram — and the first whose read side is a query
// engine rather than a scalar: Quantile, Rank, CDF, Count and Sum over
// rounded buckets in the style of Matias, Vitter and Young's approximate
// data structures. Bucket boundaries are spaced by the multiplicative
// accuracy factor k, so a bucket index is computable without search and
// every recorded value is represented within a factor k; handle-local
// observation batching adds a rank-domain slack of at most B-1
// observations per handle. Like the other families, the kind is one
// table row plus one internal/shard registration.

// HistogramHandle is one process's view of a shared histogram: an
// observer (Observe/ObserveN) and a query engine over all observations.
// Every query folds one merged read of the bucket counts, so its answer
// is consistent within itself; distinct queries read independently. A
// handle is not safe for concurrent use; acquire one per goroutine.
//
// Deterministic error bounds, with k the accuracy factor, U the Buffer
// term of the object's Bounds (at most B-1 buffered observations per
// handle, (B-1)·n system-wide), N the true observation count, and A(x)
// the true number of observations with value <= x:
//
//	Count()     in [N-U, N]
//	Sum()       never overstates the true sum of the observations it
//	            counts and understates it by at most a factor k
//	Rank(v)     in [A(v)-U, A(v')] for some v' <= k·v (the top of v's
//	            bucket): exact up to U at a value within factor k of v
//	Quantile(q) returns x with x <= y < k·x (k = 1: x = y), where y is
//	            the value of rank ceil(q·Count()) among the counted
//	            observations
//	CDF(v)      = Rank(v)/Count() from one consistent read
//
// At quiescence, once every handle has flushed (releasing a pooled
// handle flushes), U = 0 and all slack is pure bucket rounding.
type HistogramHandle interface {
	// Observe records the value v. It panics if v is outside the
	// bounded domain [0, m) of WithBound(m), like indexing a slice out
	// of bounds.
	Observe(v uint64)
	// ObserveN records the value v, d times, linearizable as d
	// consecutive Observes by the same process.
	ObserveN(v uint64, d uint64)
	// Count returns the number of observations counted by one merged
	// read.
	Count() uint64
	// Sum returns the sum of the counted observations, each rounded
	// down to its bucket's lower boundary.
	Sum() uint64
	// Rank returns the number of counted observations with value at
	// most (the top of the bucket of) v.
	Rank(v uint64) uint64
	// Quantile returns the q-quantile (q in [0, 1]; 0 the minimum, 1
	// the maximum) of the counted observations, rounded down to its
	// bucket's lower boundary. It panics if q is outside [0, 1].
	Quantile(q float64) uint64
	// CDF returns the fraction of counted observations with value at
	// most (the top of the bucket of) v.
	CDF(v uint64) float64
	Steps() uint64
}

// BatchedHistogramHandle is a HistogramHandle whose observations may be
// buffered locally (see WithBatch); Flush publishes every pending
// bucket count. Every histogram handle implements it — Flush is a no-op
// when nothing is pending, and pooled handles flush automatically on
// release — so type assertions on it cannot fail for handles of this
// package's histograms.
type BatchedHistogramHandle interface {
	HistogramHandle
	Flush()
}

// histogramDescriptor registers the histogram family in the
// backend-plane table: reads sum the shards per bucket (no envelope
// widening — per-shard bucket counts are exact), and handles batch whole
// observations, so the B-1 staleness scales with the slot count like the
// counter's.
var histogramDescriptor = &kindDescriptor{
	kind:   KindHistogram,
	name:   "histogram",
	plural: "histograms",

	policy:   shard.HistogramPolicyRow(),
	envelope: "value error Mult = k from bucket rounding (independent of S); rank error Buffer = (B-1)·n",
	scenario: "E16",

	staleTerm:    "queries may miss observations of the last maxStale",
	readScenario: "E17",

	windowTerm:     "queries fold the observations of the last d (per-bucket sums across epochs; rounding k and rank slack unchanged; one epoch of edge skew)",
	windowScenario: "E18",

	accuracies: map[accMode]func(s Spec) error{
		accExact:          checkExactHistogram,
		accMultiplicative: nil, // k >= 2 is the generic multiplicative check
	},
	allowBound: true,
	build:      func(s Spec) (instance, error) { return newHistogram(s) },
}

// checkExactHistogram mirrors internal/histogram's layout preconditions
// at the spec level (defense in depth, like checkMultCounter): the exact
// bucket-per-value table needs a finite domain small enough to allocate.
func checkExactHistogram(s Spec) error {
	if !s.boundSet {
		return fmt.Errorf("approxobj: exact accuracy for histograms needs WithBound (the bucket-per-value table requires a finite value domain; use Multiplicative(k) for unbounded domains)")
	}
	if s.bound > histogram.MaxExactBuckets {
		return fmt.Errorf("approxobj: exact histogram bound %d exceeds the %d-bucket table limit (use Multiplicative(k) for large domains)", s.bound, histogram.MaxExactBuckets)
	}
	return nil
}

// Histogram is the approximate histogram family — rounded buckets with
// deterministic per-value multiplicative error, optionally sharded and
// with observation batching — built by NewHistogram from a spec. Like
// the other families it runs on the unified sharded runtime and reports
// its accuracy envelope via Bounds; unlike them its read side is a query
// engine (see HistogramHandle).
type Histogram struct {
	base[BatchedHistogramHandle]
	bk histogram.Buckets
}

// histRT is the runtime surface shared by the cumulative and windowed
// histogram backends; *shard.HistHandle and *shard.WHistHandle both
// satisfy it.
type histRT interface {
	AddN(bucket int, d uint64)
	Buckets() []uint64
	BucketsInto(dst []uint64) []uint64
	Steps() uint64
	Flush()
}

var _ instance = (*Histogram)(nil)

// NewHistogram builds the histogram the options describe. Defaults: one
// process slot, Exact() accuracy, unsharded, unbuffered — but note the
// exact bucket-per-value table requires WithBound(m), so the zero-option
// call is rejected; typical use selects WithAccuracy(Multiplicative(k))
// for rounded buckets over any domain. WithShards(S) spreads observation
// traffic over S shards whose per-bucket sums widen nothing;
// WithBatch(B) buffers up to B-1 observations per handle.
func NewHistogram(opts ...Option) (*Histogram, error) {
	spec, err := newSpec(KindHistogram, opts, false)
	if err != nil {
		return nil, err
	}
	return newHistogram(spec)
}

func newHistogram(spec Spec) (*Histogram, error) {
	bk, err := histogram.NewBuckets(spec.acc.K(), spec.bound)
	if err != nil {
		return nil, err
	}
	hopts := spec.shardOptions()
	h := &Histogram{bk: bk}
	if spec.Windowed() {
		rt, err := shard.NewWindowedHistogram(spec.totalProcs(), spec.acc.K(), bk.N(), spec.windowDur, spec.windowEpochs, hopts...)
		if err != nil {
			return nil, err
		}
		h.init(spec, rt, func(i int) BatchedHistogramHandle { return &histSlotHandle{h: rt.Handle(i), bk: h.bk} })
		return h, nil
	}
	rt, err := shard.NewHistogram(spec.totalProcs(), spec.acc.K(), bk.N(), hopts...)
	if err != nil {
		return nil, err
	}
	h.init(spec, rt, func(i int) BatchedHistogramHandle { return &histSlotHandle{h: rt.Handle(i), bk: h.bk} })
	return h, nil
}

// K returns the accuracy factor the bucket boundaries are spaced by (1
// for exact histograms).
func (h *Histogram) K() uint64 { return h.spec.acc.K() }

// Bound returns the value bound m (observations must be < m), or 0 for
// histograms over the full uint64 domain.
func (h *Histogram) Bound() uint64 { return h.spec.bound }

// Buckets returns the number of buckets the value domain rounds into.
func (h *Histogram) Buckets() int { return h.bk.N() }

// Bounds returns the histogram's accuracy envelope. Its two terms live
// in different domains: Mult = k bounds the value-domain rounding
// (every recorded value is represented by a bucket within factor k, so
// Quantile answers and Rank/CDF value arguments round by at most k),
// and Buffer = (B-1)·N bounds the rank-domain staleness (how many
// observations, system-wide, may be parked in handle-local buffers and
// invisible to queries). See HistogramHandle for the per-query bounds
// this envelope composes into. Unbatched exact histograms report the
// zero envelope. With WithReadCache the Stale term carries the
// staleness window: every query then folds a pre-combined bucket read
// whose regularity window opened at most Stale before the read began.
// With WithWindow(d, n) queries fold the observations of the live
// window (per-bucket sums across the epoch ring) and the Window term
// carries the one-epoch truncation skew d/n; rounding (Mult) and rank
// slack (Buffer) are unchanged — a handle's pending observations live
// in at most one epoch at a time.
func (h *Histogram) Bounds() Bounds { return h.bounds() }

// Snapshot freezes one consistent bucket read into a queryable
// HistogramSnapshot and, when reset is true, resets the window
// afterwards (see Counter.Snapshot for the two-step, non-atomic
// contract). Unlike handle queries, which each fold a fresh read, every
// query on the returned snapshot folds the same frozen counts.
func (h *Histogram) Snapshot(reset bool) (HistogramSnapshot, error) {
	hh, release := h.acquire()
	counts := hh.(*histSlotHandle).h.Buckets()
	release()
	snap := HistogramSnapshot{bk: h.bk, counts: counts}
	if reset {
		return snap, h.Reset()
	}
	return snap, nil
}

// HistogramSnapshot is a frozen, queryable view of a histogram's bucket
// counts at one instant — the query surface of HistogramHandle over one
// consistent read instead of a fresh read per query. The zero value is
// an empty snapshot whose queries all return zero.
type HistogramSnapshot struct {
	bk     histogram.Buckets
	counts []uint64
}

// Count returns the number of observations in the snapshot.
func (s HistogramSnapshot) Count() uint64 { return histogram.Count(s.counts) }

// Sum returns the sum of the snapshot's observations, each rounded down
// to its bucket's lower boundary.
func (s HistogramSnapshot) Sum() uint64 { return histogram.Sum(s.bk, s.counts) }

// Rank returns the number of observations with value at most (the top
// of the bucket of) v.
func (s HistogramSnapshot) Rank(v uint64) uint64 { return histogram.Rank(s.bk, s.counts, v) }

// Quantile returns the q-quantile of the snapshot (see
// HistogramHandle.Quantile); it panics if q is outside [0, 1].
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	return histogram.Quantile(s.bk, s.counts, q)
}

// CDF returns the fraction of observations with value at most (the top
// of the bucket of) v.
func (s HistogramSnapshot) CDF(v uint64) float64 { return histogram.CDF(s.bk, s.counts, v) }

// Handle binds process slot i (0 <= i < N) to the histogram, for
// callers managing slot assignment themselves. Each concurrent
// goroutine must use its own slot; do not mix Handle(i) with Acquire/Do
// on the same slot range. The returned handle implements
// BatchedHistogramHandle.
func (h *Histogram) Handle(i int) HistogramHandle { return h.handle(i) }

// histSlotHandle adapts a runtime histogram handle to the public query
// interface: observations round through the bucket layout on the way
// in, and every query folds one merged bucket read through
// internal/histogram's query engine. The read lands in the handle's
// reused counts buffer (handles are single-goroutine by contract), so
// steady-state queries allocate nothing.
type histSlotHandle struct {
	h      histRT
	bk     histogram.Buckets
	counts []uint64 // query scratch: one merged bucket read per query
}

var _ BatchedHistogramHandle = (*histSlotHandle)(nil)

// read folds one merged bucket read into the handle's scratch buffer.
// Each query reads once, so its answer is consistent within itself;
// the buffer is overwritten by the next query.
func (h *histSlotHandle) read() []uint64 {
	h.counts = h.h.BucketsInto(h.counts)
	return h.counts
}

func (h *histSlotHandle) Observe(v uint64) { h.ObserveN(v, 1) }

func (h *histSlotHandle) ObserveN(v uint64, d uint64) {
	if !h.bk.Contains(v) {
		panic(fmt.Sprintf("approxobj: observation %d out of range of %d-bounded histogram", v, h.bk.Bound()))
	}
	h.h.AddN(h.bk.Index(v), d)
}

func (h *histSlotHandle) Count() uint64        { return histogram.Count(h.read()) }
func (h *histSlotHandle) Sum() uint64          { return histogram.Sum(h.bk, h.read()) }
func (h *histSlotHandle) Rank(v uint64) uint64 { return histogram.Rank(h.bk, h.read(), v) }
func (h *histSlotHandle) Quantile(q float64) uint64 {
	return histogram.Quantile(h.bk, h.read(), q)
}
func (h *histSlotHandle) CDF(v uint64) float64 { return histogram.CDF(h.bk, h.read(), v) }
func (h *histSlotHandle) Steps() uint64        { return h.h.Steps() }
func (h *histSlotHandle) Flush()               { h.h.Flush() }

// snapshotValue reports the observation count — the scalar the registry
// exports for this kind; pair it with Quantile queries through a
// HistogramObject handle for the distribution itself.
func (h *Histogram) snapshotValue() uint64 {
	return histogram.Count(h.snap.(*histSlotHandle).read())
}

// snapshotBounds narrows the envelope to the one that bounds the
// exported Value: the observation count lives purely in the rank
// domain, where only the Buffer term applies — the value-domain
// rounding factor k never skews a count. This keeps the (Value, Bounds)
// pair in an ObjectSnapshot self-consistent for kind-agnostic telemetry
// consumers.
func (h *Histogram) snapshotBounds() Bounds {
	b := h.Bounds()
	b.Mult = 1
	return b
}

// snapshotDetail folds one consistent bucket read into the registry's
// kind-agnostic distribution detail: cumulative counts at the upper
// boundary of each occupied bucket (the Prometheus bucket shape — see
// package expose). Only occupied buckets are emitted, which keeps the
// detail compact even for exact layouts with one bucket per value.
func (h *Histogram) snapshotDetail() *HistogramDetail {
	counts := h.snap.(*histSlotHandle).read()
	d := &HistogramDetail{
		Count: histogram.Count(counts),
		Sum:   histogram.Sum(h.bk, counts),
		Mult:  h.spec.acc.K(),
	}
	var cum uint64
	for j, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		d.Buckets = append(d.Buckets, HistogramBucket{
			UpperBound:      h.bk.Hi(j),
			CumulativeCount: cum,
		})
	}
	return d
}
