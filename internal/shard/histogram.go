package shard

import (
	"approxobj/internal/histogram"
	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
)

// HistBackend constructs one shard's underlying bucket-count vector and
// declares its per-shard accuracy envelope. The vector itself is exact
// in the rank domain — all approximation in the value domain comes from
// the bucket layout the query layer rounds through — so the backend's
// declared Mult is the rounding factor of that layout, carried here so
// plane.Bounds composes the full (value rounding, rank staleness)
// envelope in one place.
type HistBackend = backend[object.Hist]

// BucketHistBackend builds the exact bucket-count vector over `buckets`
// buckets per shard and declares the value-domain rounding factor k of
// the layout the buckets were derived from (k = 1 when the layout is
// the exact bucket-per-value table).
func BucketHistBackend(buckets int) HistBackend {
	return HistBackend{
		meta: meta{name: "buckets", mult: kIdentity},
		make: func(f *prim.Factory, _ uint64) (object.Hist, error) {
			return histogram.NewVector(f, buckets)
		},
	}
}

// HistShards is Shards, kept only for the benchmark module, which calls
// it; it goes when the benchmark next changes.
func HistShards(s int) Option { return Shards(s) }

// HistBatch is Batch, kept only for the benchmark module, which calls
// it; it goes when the benchmark next changes.
func HistBatch(b int) Option { return Batch(b) }

// histogramPolicy is the histogram's row of the plane: reads sum the
// shards per bucket (exact per-shard counts, so nothing widens), and
// handles batch whole observations (so the B-1 staleness scales with the
// handle count, like the counter's).
var histogramPolicy = policy{
	combine:               "per-bucket sum",
	buffer:                bucketBatching,
	bufferScalesWithProcs: true,
}

// sumBuckets merges two per-shard bucket reads element-wise
// (saturating): bucket j's combined count is the sum of its per-shard
// counts.
func sumBuckets(acc, next []uint64) []uint64 {
	for i, v := range next {
		acc[i] = satmath.Add(acc[i], v)
	}
	return acc
}

// Histogram is the sharded bucket-count vector: S shards of exact
// per-bucket counts, summed per bucket by readers. It is the runtime
// substrate of the histogram family — the bucket layout and the query
// engine live in internal/histogram and the public layer; this type
// moves bucket additions and merged reads. Its Bounds pair two domains:
// Mult is the declared value-domain rounding factor k (per-shard bucket
// counts are exact and sum over a partition, so sharding adds nothing),
// and Buffer is the observation-batching headroom (B-1)*n in the rank
// domain. Create handles with Handle; the zero value is not usable.
type Histogram struct {
	*plane[object.Hist, object.HistHandle, []uint64]
	buckets int
	// bufs pools each slot's bucketBatching buffer (see bucketBuf):
	// re-created handles for a slot inherit its pending counts instead
	// of stranding them, and acquire stops allocating the vector.
	bufs []*bucketBuf
}

// NewHistogram creates a sharded histogram over `buckets` buckets for n
// process slots with value-rounding factor k (declared, not applied —
// the caller's bucket layout already rounds), configured by opts
// (default backend BucketHistBackend(buckets)). Each shard is built over
// its own n-slot prim.Factory, so any handle can read every shard.
func NewHistogram(n int, k uint64, buckets int, opts ...Option) (*Histogram, error) {
	p, err := newPlane(n, k, opts, BucketHistBackend(buckets), histogramPolicy,
		func(o object.Hist, pr *prim.Proc) object.HistHandle { return o.HistHandle(pr) },
		sumBuckets, object.HistHandle.ReadInto, newVecReadCache,
	)
	if err != nil {
		return nil, err
	}
	return &Histogram{plane: p, buckets: buckets, bufs: make([]*bucketBuf, n)}, nil
}

// Buckets returns the number of buckets.
func (hg *Histogram) Buckets() int { return hg.buckets }

// Handle binds process slot i (0 <= i < n) to the histogram. The handle
// adds to shard i mod S and reads all shards through slot i of each
// shard's factory. Like every handle in this repository it must be used
// by a single goroutine.
func (hg *Histogram) Handle(i int) *HistHandle {
	h := &HistHandle{handleCore: hg.newCore(i)}
	if hg.bufs[i] == nil {
		hg.bufs[i] = &bucketBuf{
			vec:     make([]uint64, hg.buckets),
			touched: make([]int, 0, hg.buckets),
		}
	}
	h.buf.bb = hg.bufs[i]
	h.buf.flushBucket = h.home.AddN
	return h
}

// HistHandle is one process's view of the sharded histogram: bucket
// additions (AddN) against its home shard, merged bucket reads
// (Buckets) over all shards, and Flush for draining the observation
// buffer before quiescent reads.
type HistHandle struct {
	handleCore[object.HistHandle, []uint64]
}

// Add adds one observation to bucket b.
func (h *HistHandle) Add(b int) { h.AddN(b, 1) }

// AddN adds d observations to bucket b. With Batch(B > 1) the
// additions are buffered locally and flushed — every pending bucket at
// once — when B observations are pending.
func (h *HistHandle) AddN(b int, d uint64) { h.buf.addBucket(b, d) }

// Buckets returns the merged per-bucket counts: one read of every
// shard, summed per bucket. Each bucket's combined count is inside the
// envelope Histogram.Bounds describes, relative to the regularity
// window of the package comment. The slice is fresh (owned by the
// caller).
func (h *HistHandle) Buckets() []uint64 { return h.Read() }

// BucketsInto is Buckets into a reused buffer: dst is grown (or
// allocated, if nil) as needed and filled with the merged counts.
// Per-shard reads land in the handle's scratch buffers, so steady-state
// reads through one handle allocate nothing.
func (h *HistHandle) BucketsInto(dst []uint64) []uint64 { return h.ReadInto(dst) }
