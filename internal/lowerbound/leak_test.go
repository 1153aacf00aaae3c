package lowerbound_test

import (
	"runtime"
	"testing"
	"time"

	"approxobj/internal/conformance"
	"approxobj/internal/core"
	"approxobj/internal/lowerbound"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// TestSimDriversReleaseGoroutines runs the simulator drivers that leave
// processes crashed or stopped partway through their programs: the
// perturbing-execution constructions, which abandon every poised
// perturber on each replay, and a crash-injected Sim conformance run.
// Afterwards the goroutine count must return to where it started — a
// closed machine releases every process goroutine it parked, instead of
// pinning the machine, its factory, and its trace for ever.
func TestSimDriversReleaseGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()

	res, err := lowerbound.PerturbMaxReg(func(f *prim.Factory) (object.MaxReg, error) {
		return core.NewKMultMaxReg(f, 1<<12, 2)
	}, 16, 1<<12, 2, 100_000)
	if err != nil || res.Failed || res.Rounds == 0 {
		t.Fatalf("PerturbMaxReg: err=%v res=%+v", err, res)
	}
	res, err = lowerbound.PerturbCounter(func(f *prim.Factory) (object.Counter, error) {
		return core.NewMultCounter(f, 2, core.Unchecked())
	}, 12, 1<<8, 2, 100_000)
	if err != nil || res.Failed || res.Rounds == 0 {
		t.Fatalf("PerturbCounter: err=%v res=%+v", err, res)
	}
	w := conformance.Workload{Procs: 4, OpsPer: 25, ReadFrac: 0.4, Seed: 3, CrashProcs: 2}
	if err := conformance.SimCounter(func(f *prim.Factory) (object.Counter, error) {
		return core.NewMultCounter(f, 2)
	}, w, object.Accuracy{K: 2}); err != nil {
		t.Fatalf("SimCounter: %v", err)
	}

	// Released goroutines exit asynchronously; give them a moment.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > start && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if got > start {
		t.Fatalf("goroutines: %d before the drivers ran, %d after (parked simulated processes leaked)", start, got)
	}
}
