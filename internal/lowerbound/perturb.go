// Package lowerbound makes the paper's lower-bound arguments executable.
//
// Perturbing executions (Section V, Definitions 2 and 3 of [5] as restated
// by the paper) are constructed round by round against a concrete
// implementation: each round, a fresh process runs solo until the prefix of
// its events changes the outcome of the reader's solo run; the critical
// event stays poised ("pending") while the next round begins. The number of
// rounds L achieved certifies that the implementation is L-perturbable, and
// by [5, Theorem 1] some operation of any such implementation accesses
// Omega(min(log2 L, n)) distinct base objects — which the driver measures
// directly on the reader's final solo run.
//
// The awareness experiment (Section III-D) runs the paper's
// one-increment-one-read workload and measures awareness sets (Definition
// III.3) via the simulation machine's tracker, validating Lemma III.10 and
// Corollary III.10.1.
package lowerbound

import (
	"fmt"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/sim"
)

// PerturbResult reports one perturbing-execution construction.
type PerturbResult struct {
	// Rounds is L, the number of successful perturbations.
	Rounds int
	// Values holds the perturbing payload of each round (the value written
	// for max registers; the number of increments for counters).
	Values []uint64
	// ReaderSteps is the length of the reader's solo run in the final
	// configuration (after all rounds, with pending events applied).
	ReaderSteps int
	// ReaderDistinctObjects counts the distinct base objects the reader
	// accesses in that run — the quantity [5, Theorem 1] bounds from below
	// by log2(Rounds).
	ReaderDistinctObjects int
	// ReaderResponse is the reader's final response.
	ReaderResponse uint64
	// Saturated reports that the construction stopped because every
	// available perturbing process holds a pending event (Definition 2,
	// case 2).
	Saturated bool
	// Exhausted reports that the construction stopped because the next
	// payload would exceed the object's bound m.
	Exhausted bool
	// Failed reports that a full solo run of the perturber did not change
	// the reader's response (for a correct implementation this must not
	// happen before Saturated or Exhausted).
	Failed bool
}

// round records one completed perturbation round.
type round struct {
	proc    int
	payload uint64
	prefix  int // steps of the perturber applied in alpha (gamma' length)
}

// perturbDriver abstracts over the object kind being perturbed.
type perturbDriver struct {
	n       int
	maxSolo int
	// build recreates the object and returns the per-process programs:
	// perturb(proc, payload) is the perturbing program, read stores the
	// reader's response through resp.
	build func(f *prim.Factory) (perturb func(payload uint64) func(*prim.Proc), read func(resp *uint64) func(*prim.Proc), err error)
}

// execute replays: alpha (each round's prefix in order), then j steps of
// probeProc running probePayload (if probe), then — when withLambda — the
// poised event of every pending round, then the reader's solo run.
// It returns the reader's response, its event trace, and its step count.
func (d *perturbDriver) execute(rounds []round, probe bool, probeProc int, probePayload uint64, probeSteps int, withLambda bool) (uint64, []prim.Event, int, error) {
	m := sim.NewMachine(d.n)
	defer m.Close()
	perturb, read, err := d.build(m.Factory())
	if err != nil {
		return 0, nil, 0, err
	}
	// Alpha: prefixes in round order.
	for _, r := range rounds {
		m.Spawn(r.proc, perturb(r.payload))
		if taken := m.StepN(r.proc, r.prefix); taken != r.prefix {
			return 0, nil, 0, fmt.Errorf("lowerbound: replay drift: proc %d took %d/%d prefix steps", r.proc, taken, r.prefix)
		}
	}
	// Probe: the current round's candidate prefix.
	if probe {
		m.Spawn(probeProc, perturb(probePayload))
		if probeSteps > 0 {
			if taken := m.StepN(probeProc, probeSteps); taken != probeSteps {
				return 0, nil, 0, fmt.Errorf("lowerbound: probe ended early: %d/%d steps", taken, probeSteps)
			}
		}
	}
	// Lambda: apply the poised event of each pending process.
	if withLambda {
		for _, r := range rounds {
			m.Step(r.proc)
		}
	}
	// Reader solo.
	reader := d.n - 1
	var resp uint64
	m.Spawn(reader, read(&resp))
	steps := m.RunSolo(reader, d.maxSolo)
	return resp, m.TraceOf(reader), steps, nil
}

// soloLength measures the full solo run length of the perturber after the
// current alpha (gamma in Definition 2).
func (d *perturbDriver) soloLength(rounds []round, proc int, payload uint64) (int, error) {
	m := sim.NewMachine(d.n)
	defer m.Close()
	perturb, _, err := d.build(m.Factory())
	if err != nil {
		return 0, err
	}
	for _, r := range rounds {
		m.Spawn(r.proc, perturb(r.payload))
		m.StepN(r.proc, r.prefix)
	}
	m.Spawn(proc, perturb(payload))
	return m.RunSolo(proc, d.maxSolo), nil
}

// run constructs perturbing executions until saturation, exhaustion or
// failure. nextPayload yields the payload of round r given the previous
// payloads; it returns ok=false when the object's bound is exhausted.
func (d *perturbDriver) run(nextPayload func(values []uint64) (uint64, bool)) (PerturbResult, error) {
	var (
		res    PerturbResult
		rounds []round
	)
	finish := func() (PerturbResult, error) {
		resp, evs, steps, err := d.execute(rounds, false, 0, 0, 0, true)
		if err != nil {
			return res, err
		}
		res.Rounds = len(rounds)
		res.ReaderResponse = resp
		res.ReaderSteps = steps
		res.ReaderDistinctObjects = sim.DistinctObjects(evs)
		return res, nil
	}

	for {
		// Perturbers are processes 0..n-2; the reader is n-1.
		nextProc := len(rounds)
		if nextProc >= d.n-1 {
			res.Saturated = true
			return finish()
		}
		payload, ok := nextPayload(res.Values)
		if !ok {
			res.Exhausted = true
			return finish()
		}
		baseline, _, _, err := d.execute(rounds, false, 0, 0, 0, true)
		if err != nil {
			return res, err
		}
		gammaLen, err := d.soloLength(rounds, nextProc, payload)
		if err != nil {
			return res, err
		}
		// Binary search for the minimal prefix after which the reader's
		// response diverges from the baseline. Divergence is monotone in
		// the prefix length because counters and max registers are
		// monotone objects: more perturber steps can only move the
		// reader's response further from the baseline.
		diverges := func(j int) (bool, error) {
			resp, _, _, err := d.execute(rounds, true, nextProc, payload, j, true)
			if err != nil {
				return false, err
			}
			return resp != baseline, nil
		}
		full, err := diverges(gammaLen)
		if err != nil {
			return res, err
		}
		if !full {
			res.Failed = true
			return finish()
		}
		lo, hi := 1, gammaLen // invariant: diverges(hi) holds
		for lo < hi {
			mid := lo + (hi-lo)/2
			div, err := diverges(mid)
			if err != nil {
				return res, err
			}
			if div {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		// The lo-th step of gamma is the critical event e: gamma' is the
		// lo-1 steps before it. e joins the pending events (lambda).
		rounds = append(rounds, round{proc: nextProc, payload: payload, prefix: lo - 1})
		res.Values = append(res.Values, payload)
	}
}

// PerturbMaxReg runs the Lemma V.1 construction against the max register
// built by mk: round r writes v_r = k^2 * v_(r-1) + 1 (k = 1 reproduces the
// exact-register bound of [5]). n bounds the rounds to n-2; m is the
// register's bound.
func PerturbMaxReg(mk func(f *prim.Factory) (object.MaxReg, error), n int, m, k uint64, maxSolo int) (PerturbResult, error) {
	d := &perturbDriver{
		n:       n,
		maxSolo: maxSolo,
		build: func(f *prim.Factory) (func(uint64) func(*prim.Proc), func(*uint64) func(*prim.Proc), error) {
			r, err := mk(f)
			if err != nil {
				return nil, nil, err
			}
			perturb := func(payload uint64) func(*prim.Proc) {
				return func(p *prim.Proc) { r.MaxRegHandle(p).Write(payload) }
			}
			read := func(resp *uint64) func(*prim.Proc) {
				return func(p *prim.Proc) { *resp = r.MaxRegHandle(p).Read() }
			}
			return perturb, read, nil
		},
	}
	return d.run(func(values []uint64) (uint64, bool) {
		prev := uint64(0)
		if len(values) > 0 {
			prev = values[len(values)-1]
		}
		next := k*k*prev + 1
		if next > m-1 || (prev > 0 && next <= prev) {
			return 0, false
		}
		return next, true
	})
}

// PerturbCounter runs the Lemma V.3 construction against the counter built
// by mk: round r performs I_r = (k^2-1) * sum(I_1..I_(r-1)) + r increments.
// m bounds the total number of increments.
func PerturbCounter(mk func(f *prim.Factory) (object.Counter, error), n int, m, k uint64, maxSolo int) (PerturbResult, error) {
	d := &perturbDriver{
		n:       n,
		maxSolo: maxSolo,
		build: func(f *prim.Factory) (func(uint64) func(*prim.Proc), func(*uint64) func(*prim.Proc), error) {
			c, err := mk(f)
			if err != nil {
				return nil, nil, err
			}
			perturb := func(payload uint64) func(*prim.Proc) {
				return func(p *prim.Proc) {
					h := c.CounterHandle(p)
					for i := uint64(0); i < payload; i++ {
						h.Inc()
					}
				}
			}
			read := func(resp *uint64) func(*prim.Proc) {
				return func(p *prim.Proc) { *resp = c.CounterHandle(p).Read() }
			}
			return perturb, read, nil
		},
	}
	return d.run(func(values []uint64) (uint64, bool) {
		var sum uint64
		for _, v := range values {
			sum += v
		}
		r := uint64(len(values)) + 1
		next := (k*k-1)*sum + r
		if sum+next > m || next == 0 {
			return 0, false
		}
		return next, true
	})
}
