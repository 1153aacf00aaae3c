// Package conformance drives counter and max-register implementations
// through concurrent workloads and checks the resulting histories for
// linearizability within their accuracy envelopes.
//
// Two drivers are provided:
//
//   - Sim*: step-granular adversarial interleavings on the deterministic
//     machine of internal/sim. The driver stamps an operation's invocation
//     right before its first step and its response right after its last, so
//     recorded precedence is exactly the model's. Supports crash injection.
//   - HW*: real goroutines over sync/atomic primitives with logical-clock
//     history recording (the production path).
//
// Both feed internal/check. Today only tests use them: this package's
// own, over the single-object cores (internal/core, internal/counter,
// internal/maxreg), and the simulator's goroutine-release test in
// internal/lowerbound. The public objects and the sharded plane are not yet
// checked for linearizability within their envelopes — that is an open
// ROADMAP item ("Linearizability within the envelope for the composed
// plane").
package conformance

import (
	"fmt"
	"math/rand"

	"approxobj/internal/check"
	"approxobj/internal/history"
	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/sim"
)

// Workload describes a randomized mixed workload.
type Workload struct {
	Procs    int
	OpsPer   int     // operations per process
	ReadFrac float64 // fraction of reads (rest are updates)
	Seed     int64
	// MaxArg bounds write arguments for max registers (exclusive); ignored
	// for counters.
	MaxArg uint64
	// CrashProcs crash-stops this many processes at a random point
	// (simulated driver only).
	CrashProcs int
}

// opKind is a scheduled operation of a scripted workload.
type opKind struct {
	kind history.Kind
	arg  uint64
}

// script pre-generates each process's operation list so runs are
// reproducible from the seed alone.
func (w Workload) script(counter bool) [][]opKind {
	rng := rand.New(rand.NewSource(w.Seed))
	scripts := make([][]opKind, w.Procs)
	for i := range scripts {
		ops := make([]opKind, w.OpsPer)
		for j := range ops {
			if rng.Float64() < w.ReadFrac {
				if counter {
					ops[j] = opKind{kind: history.KindCounterRead}
				} else {
					ops[j] = opKind{kind: history.KindMaxRead}
				}
			} else {
				if counter {
					ops[j] = opKind{kind: history.KindInc}
				} else {
					arg := uint64(rng.Int63n(int64(w.MaxArg-1))) + 1
					ops[j] = opKind{kind: history.KindWrite, arg: arg}
				}
			}
		}
		scripts[i] = ops
	}
	return scripts
}

// simHistory runs the scripted workload on a fresh machine, returning the
// completed-operation history plus the updates that crashed mid-flight.
func simHistory(
	newSystem func(f *prim.Factory) ([]func(op opKind) uint64, error),
	w Workload,
	counter bool,
) ([]history.Op, []history.Op, error) {
	m := sim.NewMachine(w.Procs)
	defer m.Close()
	apply, err := newSystem(m.Factory())
	if err != nil {
		return nil, nil, err
	}
	scripts := w.script(counter)

	rng := rand.New(rand.NewSource(w.Seed + 1))
	// Pre-pick crash points: (process, remaining steps before crash).
	nCrash := w.CrashProcs
	if nCrash > w.Procs {
		nCrash = w.Procs
	}
	crashAfter := make(map[int]int)
	for _, i := range rng.Perm(w.Procs)[:nCrash] {
		crashAfter[i] = rng.Intn(w.OpsPer * 4)
	}

	var (
		clock     uint64
		completed []history.Op
		pending   []history.Op
		current   = make([]*history.Op, w.Procs)
		nextOp    = make([]int, w.Procs)
		results   = make([]uint64, w.Procs)
		crashed   = make([]bool, w.Procs)
	)
	active := func() []int {
		var ids []int
		for i := 0; i < w.Procs; i++ {
			if crashed[i] {
				continue
			}
			if current[i] != nil || nextOp[i] < len(scripts[i]) {
				ids = append(ids, i)
			}
		}
		return ids
	}
	for {
		ids := active()
		if len(ids) == 0 {
			break
		}
		i := ids[rng.Intn(len(ids))]
		if steps, ok := crashAfter[i]; ok && steps <= 0 && current[i] != nil {
			// Crash mid-operation: the op stays pending forever.
			m.Crash(i)
			crashed[i] = true
			pending = append(pending, *current[i])
			current[i] = nil
			continue
		}
		if current[i] == nil {
			// Invoke the next scripted op.
			op := scripts[i][nextOp[i]]
			nextOp[i]++
			clock++
			current[i] = &history.Op{Proc: i, Kind: op.kind, Arg: op.arg, Inv: clock}
			proc := i
			opCopy := op
			m.Spawn(i, func(*prim.Proc) {
				results[proc] = apply[proc](opCopy)
			})
		}
		took := m.Step(i)
		if steps, ok := crashAfter[i]; ok && took {
			crashAfter[i] = steps - 1
		}
		if !m.Running(i) {
			clock++
			cur := current[i]
			cur.Ret = clock
			cur.Resp = results[i]
			completed = append(completed, *cur)
			current[i] = nil
		}
	}
	return completed, pending, nil
}

// SimCounter runs the workload against the counter built by mk on the
// simulated machine and checks linearizability within acc. It returns an
// error describing the violation, if any.
func SimCounter(mk func(f *prim.Factory) (object.Counter, error), w Workload, acc object.Accuracy) error {
	return SimCounterEnvelope(mk, w, check.MultEnvelope{K: acc.K})
}

// SimCounterEnvelope is SimCounter for an arbitrary accuracy envelope
// (e.g. check.AddEnvelope for k-additive counters).
func SimCounterEnvelope(mk func(f *prim.Factory) (object.Counter, error), w Workload, env check.Envelope) error {
	newSystem := func(f *prim.Factory) ([]func(opKind) uint64, error) {
		c, err := mk(f)
		if err != nil {
			return nil, err
		}
		apply := make([]func(opKind) uint64, w.Procs)
		for i := 0; i < w.Procs; i++ {
			h := c.CounterHandle(f.Proc(i))
			apply[i] = func(op opKind) uint64 {
				if op.kind == history.KindInc {
					h.Inc()
					return 0
				}
				return h.Read()
			}
		}
		return apply, nil
	}
	completed, pendingOps, err := simHistory(newSystem, w, true)
	if err != nil {
		return err
	}
	pendingIncs := 0
	for _, op := range pendingOps {
		if op.Kind == history.KindInc {
			pendingIncs++
		}
	}
	if res := check.CounterEnvelope(completed, env, pendingIncs); !res.OK {
		return fmt.Errorf("seed %d: %s", w.Seed, res.Reason)
	}
	return nil
}

// SimMaxRegister is SimCounter for max registers.
func SimMaxRegister(mk func(f *prim.Factory) (object.MaxReg, error), w Workload, acc object.Accuracy) error {
	newSystem := func(f *prim.Factory) ([]func(opKind) uint64, error) {
		r, err := mk(f)
		if err != nil {
			return nil, err
		}
		apply := make([]func(opKind) uint64, w.Procs)
		for i := 0; i < w.Procs; i++ {
			h := r.MaxRegHandle(f.Proc(i))
			apply[i] = func(op opKind) uint64 {
				if op.kind == history.KindWrite {
					h.Write(op.arg)
					return 0
				}
				return h.Read()
			}
		}
		return apply, nil
	}
	completed, pendingOps, err := simHistory(newSystem, w, false)
	if err != nil {
		return err
	}
	var pendingWrites []uint64
	for _, op := range pendingOps {
		if op.Kind == history.KindWrite {
			pendingWrites = append(pendingWrites, op.Arg)
		}
	}
	if res := check.MaxRegister(completed, acc, pendingWrites); !res.OK {
		return fmt.Errorf("seed %d: %s", w.Seed, res.Reason)
	}
	return nil
}

// HWCounter runs the workload with real goroutines (one per process) and
// checks the recorded history.
func HWCounter(mk func(f *prim.Factory) (object.Counter, error), w Workload, acc object.Accuracy) error {
	f := prim.NewFactory(w.Procs)
	c, err := mk(f)
	if err != nil {
		return err
	}
	rec := history.NewRecorder(w.Procs)
	scripts := w.script(true)
	errs := runProcs(w.Procs, func(i int) {
		h := c.CounterHandle(f.Proc(i))
		for _, op := range scripts[i] {
			if op.kind == history.KindInc {
				rec.Record(i, history.KindInc, 0, func() uint64 { h.Inc(); return 0 })
			} else {
				rec.Record(i, history.KindCounterRead, 0, h.Read)
			}
		}
	})
	if errs != nil {
		return errs
	}
	if res := check.Counter(rec.History(), acc, 0); !res.OK {
		return fmt.Errorf("seed %d: %s", w.Seed, res.Reason)
	}
	return nil
}

// HWMaxRegister is HWCounter for max registers.
func HWMaxRegister(mk func(f *prim.Factory) (object.MaxReg, error), w Workload, acc object.Accuracy) error {
	f := prim.NewFactory(w.Procs)
	r, err := mk(f)
	if err != nil {
		return err
	}
	rec := history.NewRecorder(w.Procs)
	scripts := w.script(false)
	errs := runProcs(w.Procs, func(i int) {
		h := r.MaxRegHandle(f.Proc(i))
		for _, op := range scripts[i] {
			if op.kind == history.KindWrite {
				arg := op.arg
				rec.Record(i, history.KindWrite, arg, func() uint64 { h.Write(arg); return 0 })
			} else {
				rec.Record(i, history.KindMaxRead, 0, h.Read)
			}
		}
	})
	if errs != nil {
		return errs
	}
	if res := check.MaxRegister(rec.History(), acc, nil); !res.OK {
		return fmt.Errorf("seed %d: %s", w.Seed, res.Reason)
	}
	return nil
}

// runProcs runs body(i) on n goroutines and waits for them.
func runProcs(n int, body func(i int)) error {
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("process %d panicked: %v", i, r)
					return
				}
				done <- nil
			}()
			body(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	return first
}
