package shard

import (
	"time"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/snapshot"
	"approxobj/internal/telemetry"
)

// SnapshotBackend constructs one shard's underlying single-writer atomic
// snapshot and declares its per-shard accuracy envelope. The one backend
// so far is the exact AADGMS construction; the plane makes an
// approximate one (e.g. rounded components per Matias/Vitter/Young) a
// registration away.
type SnapshotBackend = backend[object.Snapshot]

// ExactSnapshotBackend shards the wait-free single-writer atomic
// snapshot of Afek et al. (internal/snapshot): per-component merge over
// shards is exact, because every component lives in exactly one shard.
func ExactSnapshotBackend() SnapshotBackend {
	return SnapshotBackend{
		meta: meta{name: "exact-snapshot"},
		make: func(f *prim.Factory, _ uint64) (object.Snapshot, error) {
			return snapshot.New(f)
		},
	}
}

// SnapshotOption configures a sharded snapshot.
type SnapshotOption func(*snapshotConfig)

type snapshotConfig struct {
	shards    int
	batch     int
	backend   SnapshotBackend
	readStale time.Duration
	tel       *telemetry.Sink
}

// SnapshotShards sets the shard count S (default 1). Component updates
// spread across shards by handle affinity — slot i's component lives
// only in shard i mod S — so a scan merges a partition: reads cost one
// underlying scan per shard and the envelope does not widen with S.
func SnapshotShards(s int) SnapshotOption { return func(c *snapshotConfig) { c.shards = s } }

// SnapshotBatch sets the per-handle component-elision window B (default
// 1). A handle remembers the last component value it flushed to its home
// shard and elides updates in the window [flushed, flushed+B-1], keeping
// the LATEST elided value locally until a move outside the window (in
// particular any downward move) or Flush publishes it. A scanned
// component therefore trails its true value by at most B-1 and never
// exceeds it; Snapshot.Bounds reports that headroom as the Buffer term.
func SnapshotBatch(b int) SnapshotOption { return func(c *snapshotConfig) { c.batch = b } }

// WithSnapshotBackend selects the per-shard snapshot implementation
// (default ExactSnapshotBackend).
func WithSnapshotBackend(b SnapshotBackend) SnapshotOption {
	return func(c *snapshotConfig) { c.backend = b }
}

// SnapshotReadCache enables the read-combiner tier (default off): scans
// serve a pre-combined component vector at most d old in O(components)
// — independent of S — instead of merging S shard scans, at the cost of
// the Stale term in Bounds. The snapshot's LAST slot is reserved for
// the background combiner goroutine (so n must be >= 2; that slot's
// component stays zero); stop it with Close.
func SnapshotReadCache(d time.Duration) SnapshotOption {
	return func(c *snapshotConfig) { c.readStale = d }
}

// SnapshotTelemetry attaches an internal telemetry sink (see Telemetry).
func SnapshotTelemetry(s *telemetry.Sink) SnapshotOption {
	return func(c *snapshotConfig) { c.tel = s }
}

// snapshotPolicy is the snapshot's row of the plane: reads merge the
// shards per component (each component lives in one shard, so nothing
// widens), and handles elide component updates (staleness is per
// component, so the Buffer term does not scale with n).
var snapshotPolicy = policy{
	combine: "per-component",
	buffer:  componentElision,
}

// snapHandle adapts the object-layer snapshot handle (Update/Scan) to
// the plane's Reader: a Read is a Scan, a readInto a ScanInto.
type snapHandle struct{ object.SnapshotHandle }

func (h snapHandle) Read() []uint64 { return h.Scan() }

// scanInto is the plane's per-shard readInto for snapshots.
func scanInto(h snapHandle, dst []uint64) []uint64 { return h.ScanInto(dst) }

// mergeComponents merges two per-shard scans element-wise. Handle
// affinity means component i is only ever written in shard i mod S; in
// every other shard it stays 0, so the element-wise max recovers each
// component's home-shard value exactly.
func mergeComponents(acc, next []uint64) []uint64 {
	for i, v := range next {
		if v > acc[i] {
			acc[i] = v
		}
	}
	return acc
}

// Snapshot is the sharded single-writer atomic snapshot: S shards whose
// scans are merged per component. Component i is written only through
// handle i (single-writer); any handle scans all components. Create
// handles with Handle; the zero value is not usable.
type Snapshot struct {
	p *plane[object.Snapshot, snapHandle, []uint64]
}

// NewSnapshot creates a sharded snapshot for n process slots (= n
// components) with accuracy parameter k (ignored by the exact backend),
// configured by opts. Each shard is built over its own n-slot
// prim.Factory, so any handle can scan every shard.
func NewSnapshot(n int, k uint64, opts ...SnapshotOption) (*Snapshot, error) {
	cfg := snapshotConfig{shards: 1, batch: 1, backend: ExactSnapshotBackend()}
	for _, opt := range opts {
		opt(&cfg)
	}
	p, err := newPlane(n, k, cfg.shards, cfg.batch, cfg.readStale, cfg.tel, cfg.backend, snapshotPolicy,
		func(o object.Snapshot, pr *prim.Proc) snapHandle { return snapHandle{o.SnapshotHandle(pr)} },
		mergeComponents, scanInto, newVecReadCache,
	)
	if err != nil {
		return nil, err
	}
	return &Snapshot{p: p}, nil
}

// N returns the number of process slots (= components).
func (s *Snapshot) N() int { return s.p.N() }

// K returns the accuracy parameter passed to the backend.
func (s *Snapshot) K() uint64 { return s.p.K() }

// Shards returns the shard count S.
func (s *Snapshot) Shards() int { return s.p.Shards() }

// Batch returns the per-handle component-elision window B (1 means every
// component change is flushed immediately).
func (s *Snapshot) Batch() uint64 { return s.p.Batch() }

// Backend returns the configured backend.
func (s *Snapshot) Backend() SnapshotBackend { return s.p.be }

// ReadCache returns the read-cache staleness window (0 when off).
func (s *Snapshot) ReadCache() time.Duration { return s.p.ReadCache() }

// Close stops the read cache's background combiner goroutine, if any.
// Idempotent; handles stay usable (cached scans refresh inline).
func (s *Snapshot) Close() { s.p.Close() }

// Bounds returns the per-component read envelope for this configuration:
// Mult is the backend's per-shard factor (sharding adds nothing — the
// merged scan is a scan of a partition), and Buffer is the
// component-elision headroom B-1, per component (components are disjoint
// across handles, so it does not scale with n or S). Each scanned
// component obeys the envelope against its own true value.
func (s *Snapshot) Bounds() Bounds { return s.p.Bounds() }

// BaseObjects returns the number of base objects allocated across all
// shards — the snapshot's space cost in the paper's model.
func (s *Snapshot) BaseObjects() uint64 { return s.p.BaseObjects() }

func (s *Snapshot) sink() *telemetry.Sink { return s.p.tel }

// Handle binds process slot i (0 <= i < n) to the snapshot. The handle
// owns component i: its updates land in shard i mod S, and its scans
// merge all shards through slot i of each shard's factory. Like every
// handle in this repository it must be used by a single goroutine.
func (s *Snapshot) Handle(i int) *SnapshotHandle {
	h := &SnapshotHandle{handleCore: s.p.newCore(i), slot: i}
	h.buf.flush = h.home.Update
	// A fresh handle must not elide relative to a stale zero: a
	// re-created handle for a slot that has written before would
	// otherwise treat a downward move as an in-window upward one (or, at
	// any batch, treat Update(0) as the value-unchanged no-op) and elide
	// it, leaving scans overstating the component. Recover the
	// component's currently flushed value from the home shard — one
	// register read when the backend's handle can read a single
	// component, a full scan otherwise (once per handle construction;
	// pooled handles are cached per slot).
	if cr, ok := h.home.SnapshotHandle.(object.ComponentReader); ok {
		h.buf.flushed = cr.ReadComponent(i)
	} else {
		h.buf.flushed = h.home.Read()[i]
	}
	return h
}

// SnapshotHandle is one process's view of the sharded snapshot: the
// single writer of its component (Update) and a scanner of all
// components (Scan). Flush publishes an elided component update before
// quiescent scans.
type SnapshotHandle struct {
	handleCore[snapHandle, []uint64]
	slot int
}

// Component returns the index of the component this handle writes.
func (h *SnapshotHandle) Component() int { return h.slot }

// Update sets this handle's component to v. With SnapshotBatch(B > 1),
// updates in the window [flushed, flushed+B-1] above the last flushed
// value are elided — kept locally as the pending component value — while
// any move outside the window (including every downward move) is written
// through immediately, so scans never overstate the component.
func (h *SnapshotHandle) Update(v uint64) { h.buf.add(v) }

// Scan merges one scan of every shard per component. Each returned
// component is inside the envelope Snapshot.Bounds describes against its
// own true value, relative to the regularity window of the package
// comment. The slice is fresh (owned by the caller).
func (h *SnapshotHandle) Scan() []uint64 { return h.Read() }

// ScanInto is Scan into a reused buffer: dst is grown (or allocated, if
// nil) as needed and filled with the merged view. Per-shard scans land
// in the handle's scratch buffers, so steady-state scans through one
// handle allocate nothing.
func (h *SnapshotHandle) ScanInto(dst []uint64) []uint64 { return h.ReadInto(dst) }
