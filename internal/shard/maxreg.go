package shard

import (
	"fmt"

	"approxobj/internal/core"
	"approxobj/internal/maxreg"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// MaxRegBackend constructs one shard's underlying max register and
// declares its per-shard accuracy envelope. The four backends cover the
// repository's max-register families: the exact bounded tree of [8], the
// exact unbounded epoch construction, and the paper's Algorithm 2
// (k-multiplicative), bounded and unbounded. A backend's bound (writes
// must be < m, 0 for unbounded) is checked by the handle before elision,
// so an out-of-range write panics even when it would otherwise be elided.
type MaxRegBackend = backend[object.MaxReg]

// ExactMaxBackend shards the exact unbounded max register (the epoch
// construction over the tree of [8]): the max over shards is exact.
func ExactMaxBackend() MaxRegBackend {
	return MaxRegBackend{
		meta: meta{name: "exact-unbounded"},
		make: func(f *prim.Factory, _ uint64) (object.MaxReg, error) {
			return maxreg.NewUnbounded(f, maxreg.ExactFactory)
		},
	}
}

// ExactBoundedMaxBackend shards the exact m-bounded tree register of [8]:
// worst-case ceil(log2 m) steps per shard operation, exact reads.
func ExactBoundedMaxBackend(m uint64) MaxRegBackend {
	return MaxRegBackend{
		meta: meta{name: "exact-bounded", bound: m},
		make: func(f *prim.Factory, _ uint64) (object.MaxReg, error) {
			return maxreg.NewBounded(f, m)
		},
	}
}

// MultMaxBackend shards the unbounded k-multiplicative register (Algorithm
// 2 plugged into the epoch construction): each shard is k-accurate, and so
// is the max.
func MultMaxBackend() MaxRegBackend {
	return MaxRegBackend{
		meta: meta{name: "mult-unbounded", mult: kIdentity},
		make: func(f *prim.Factory, k uint64) (object.MaxReg, error) {
			return core.NewKMultUnboundedMaxReg(f, k)
		},
	}
}

// MultBoundedMaxBackend shards the paper's Algorithm 2 (core.KMultMaxReg):
// k-multiplicative m-bounded, O(min(log2 log_k m, n)) worst-case steps per
// shard operation.
func MultBoundedMaxBackend(m uint64) MaxRegBackend {
	return MaxRegBackend{
		meta: meta{name: "mult-bounded", bound: m, mult: kIdentity},
		make: func(f *prim.Factory, k uint64) (object.MaxReg, error) {
			return core.NewKMultMaxReg(f, m, k)
		},
	}
}

// MaxRegShards is Shards, kept only for the benchmark module, which
// calls it; it goes when the benchmark next changes.
func MaxRegShards(s int) Option { return Shards(s) }

// MaxRegBatch is Batch, kept only for the benchmark module, which calls
// it; it goes when the benchmark next changes.
func MaxRegBatch(b int) Option { return Batch(b) }

// WithMaxRegBackend is WithBackend, kept only for the benchmark module,
// which calls it; it goes when the benchmark next changes.
func WithMaxRegBackend(b MaxRegBackend) Option { return WithBackend(b) }

// maxRegPolicy is the max register's row of the plane: reads take the
// max over shards (no envelope widening — the max over shards is the
// global max), and handles elide writes (the B-1 staleness lives in the
// ONE handle holding the maximum, so it does not scale with n).
var maxRegPolicy = policy{
	combine: "max",
	buffer:  writeElision,
}

// maxOf is the max register's combine.
func maxOf(a, b uint64) uint64 {
	if b > a {
		return b
	}
	return a
}

// MaxReg is the sharded max register: S independently accurate shards
// combined by taking the max. Its Bounds keep the backend's per-shard
// Mult (the max over shards is the global max, so sharding adds
// nothing), and its Buffer term is the write-elision headroom B-1 per
// handle, NOT multiplied by n: the true maximum is held by one handle,
// whose flushed value trails it by at most B-1. Create handles with
// Handle; the zero value is not usable.
type MaxReg struct {
	*plane[object.MaxReg, object.MaxRegHandle, uint64]
}

// NewMaxReg creates a sharded max register for n process slots with
// accuracy parameter k (ignored by exact backends), configured by opts
// (default backend ExactMaxBackend). Each shard is built over its own
// n-slot prim.Factory, so any handle can read every shard.
func NewMaxReg(n int, k uint64, opts ...Option) (*MaxReg, error) {
	p, err := newPlane(n, k, opts, ExactMaxBackend(), maxRegPolicy,
		func(o object.MaxReg, pr *prim.Proc) object.MaxRegHandle { return o.MaxRegHandle(pr) },
		maxOf, nil, newScalarReadCache,
	)
	if err != nil {
		return nil, err
	}
	return &MaxReg{p}, nil
}

// Handle binds process slot i (0 <= i < n) to the register. The handle
// writes to shard i mod S and reads all shards through slot i of each
// shard's factory. Like every handle in this repository it must be used
// by a single goroutine.
func (m *MaxReg) Handle(i int) *MaxRegHandle {
	h := &MaxRegHandle{handleCore: m.newCore(i), bound: m.be.bound}
	h.buf.flush = h.home.Write
	return h
}

// MaxRegHandle is one process's view of the sharded max register. It
// satisfies the public MaxRegisterHandle interface (Write, Read, Steps)
// and adds Flush for publishing elided writes before quiescent reads;
// Read takes the max over one read of every shard.
type MaxRegHandle struct {
	handleCore[object.MaxRegHandle, uint64]
	bound uint64
}

var _ object.MaxRegHandle = (*MaxRegHandle)(nil)

// Write records v. Writes at or below the handle's last flushed value are
// always elided for free (the home shard already holds at least that
// much); with Batch(B > 1), writes within B-1 above it are elided
// too, kept locally as the pending maximum until a larger write or Flush
// publishes them. On bounded backends, v >= m panics regardless of
// elision, like an out-of-range slice index.
func (h *MaxRegHandle) Write(v uint64) {
	if h.bound > 0 && v >= h.bound {
		panic(fmt.Sprintf("shard: write %d out of range of %d-bounded max register", v, h.bound))
	}
	h.buf.add(v)
}
