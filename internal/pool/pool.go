// Package pool implements a free list of process slots. Every object in
// this repository binds goroutines to numbered process slots (the model's
// named processes); the pool makes the "one slot per goroutine" invariant
// structural: a goroutine that holds a slot acquired it from the pool, and
// nobody else can hold the same slot until it is released.
//
// The implementation is a buffered channel used as a lock-free free list:
// Acquire receives a slot, Release sends it back. Channel semantics give
// exactly the two properties the objects need — mutual exclusion per slot
// (a slot value exists in at most one place at a time) and a
// happens-before edge from each Release to the next Acquire of the same
// slot, so successive owners of a slot may reuse its handle state without
// further synchronization. The channel's FIFO rotation of slots is
// load-bearing too: a pooled snapshot caller writes the component of
// whichever slot it receives, so the rotation decides how pooled writes
// spread over the components (the root package's snapshot conformance
// tests depend on it, and fail under a lowest-free-slot-first list).
//
// The channel alone cannot distinguish "slot s is held" from "slot s is
// free"; it only counts. A double release would therefore go unnoticed
// whenever some other slot happened to be held (the free list has room),
// silently duplicating the slot and handing it to two goroutines at once.
// An atomic held-slot bitset closes that hole: every Acquire marks its
// slot held, every Release atomically clears the mark, and a Release of a
// slot whose mark is already clear panics immediately — exclusivity is
// enforced per slot, not inferred from the free list's fill level.
package pool

import (
	"fmt"
	"sync/atomic"

	"approxobj/internal/telemetry"
)

// Pool is a fixed-capacity free list of slots 0..n-1. The zero value is
// not usable; create pools with New. All methods are safe for concurrent
// use.
type Pool struct {
	free chan int
	// held is a bitset over slots: bit (s % 64) of word (s / 64) is set
	// exactly while slot s is checked out. It is the source of truth for
	// Release's exclusivity check; the channel remains the source of the
	// happens-before edge between successive owners.
	held []atomic.Uint64

	// tel receives acquisition events when the owning object is
	// instrumented (nil otherwise; the sink's methods are
	// nil-receiver-safe, so the acquisition paths report
	// unconditionally).
	tel *telemetry.Sink
}

// New creates a pool over slots 0..n-1, all initially free. n must be at
// least 1.
func New(n int) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("pool: need at least one slot, got %d", n))
	}
	p := &Pool{
		free: make(chan int, n),
		held: make([]atomic.Uint64, (n+63)/64),
	}
	for i := 0; i < n; i++ {
		p.free <- i
	}
	return p
}

// Instrument attaches a telemetry sink to the pool's acquisition paths
// (telemetry.EvPoolAcquire per lease, telemetry.EvPoolTryFail per
// failed TryAcquire, and the sampled TraceAcquire hook). A nil sink
// disables instrumentation.
func (p *Pool) Instrument(s *telemetry.Sink) { p.tel = s }

// Cap returns the number of slots the pool manages.
func (p *Pool) Cap() int { return cap(p.free) }

// Free returns the number of currently unheld slots (diagnostic; the value
// may be stale by the time it is observed).
func (p *Pool) Free() int { return len(p.free) }

// Held reports whether slot is currently checked out (diagnostic; the
// answer may be stale by the time it is observed, except for the caller's
// own slot, which only the caller can release).
func (p *Pool) Held(slot int) bool {
	if slot < 0 || slot >= cap(p.free) {
		return false
	}
	return p.held[slot/64].Load()&(uint64(1)<<(slot%64)) != 0
}

// mark sets the held bit of slot; the slot came off the free list, so the
// bit must have been clear.
func (p *Pool) mark(slot int) {
	mask := uint64(1) << (slot % 64)
	if old := p.held[slot/64].Or(mask); old&mask != 0 {
		panic(fmt.Sprintf("pool: slot %d handed out while already held", slot))
	}
}

// Acquire blocks until a slot is free and returns it. The caller owns the
// slot exclusively until it passes it back via Release.
func (p *Pool) Acquire() int {
	s := <-p.free
	p.mark(s)
	if p.tel != nil {
		p.tel.Inc(telemetry.EvPoolAcquire, s)
		p.tel.Trace(telemetry.TraceAcquire, s, 0)
	}
	return s
}

// TryAcquire returns a free slot without blocking, or ok=false if every
// slot is currently held.
func (p *Pool) TryAcquire() (slot int, ok bool) {
	select {
	case s := <-p.free:
		p.mark(s)
		if p.tel != nil {
			p.tel.Inc(telemetry.EvPoolAcquire, s)
			p.tel.Trace(telemetry.TraceAcquire, s, 0)
		}
		return s, true
	default:
		p.tel.Inc(telemetry.EvPoolTryFail, 0)
		return 0, false
	}
}

// Release returns a slot to the pool. Releasing a slot that is not
// currently held (double release, or a slot never acquired) is a bug in
// the caller and panics immediately — the held bit is cleared atomically,
// so exactly one of two racing releases of the same slot wins and the
// other panics, whether or not the free list happens to have room.
func (p *Pool) Release(slot int) {
	if slot < 0 || slot >= cap(p.free) {
		panic(fmt.Sprintf("pool: release of out-of-range slot %d (capacity %d)", slot, cap(p.free)))
	}
	mask := uint64(1) << (slot % 64)
	if old := p.held[slot/64].And(^mask); old&mask == 0 {
		panic(fmt.Sprintf("pool: release of slot %d that is not held (double release?)", slot))
	}
	select {
	case p.free <- slot:
	default:
		// Unreachable while the bitset invariant holds: a slot's bit is set
		// iff it is absent from the channel, so there is always room for it.
		panic(fmt.Sprintf("pool: release of slot %d into a full pool (free-list corruption)", slot))
	}
}
