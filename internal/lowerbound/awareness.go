package lowerbound

import (
	"sort"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/sim"
)

// AwarenessResult reports one run of the Section III-D experiment: an
// n-process execution in which every process performs one CounterIncrement
// followed by one CounterRead (the workload of Lemma III.10 and Corollary
// III.10.1).
type AwarenessResult struct {
	N int
	K uint64
	// Sizes[i] = |AW(E, p_i)| after the execution, including p_i itself.
	Sizes []int
	// Responses[i] is process i's CounterRead response.
	Responses []uint64
	// TotalSteps is the number of primitive steps of the whole execution —
	// the quantity Theorem III.11 bounds by Omega(n log(n/k^2)).
	TotalSteps int
}

// MedianSize returns the median awareness-set size.
func (r AwarenessResult) MedianSize() int {
	if len(r.Sizes) == 0 {
		return 0
	}
	s := append([]int(nil), r.Sizes...)
	sort.Ints(s)
	return s[len(s)/2]
}

// CountAtLeast returns how many processes are aware of at least threshold
// processes.
func (r AwarenessResult) CountAtLeast(threshold int) int {
	c := 0
	for _, s := range r.Sizes {
		if s >= threshold {
			c++
		}
	}
	return c
}

// SatisfiesCorollary reports whether the run witnesses Corollary III.10.1:
// at least n/2 processes aware of at least n/(2k^2) processes.
func (r AwarenessResult) SatisfiesCorollary() bool {
	threshold := r.N / (2 * int(r.K) * int(r.K))
	if threshold < 1 {
		threshold = 1
	}
	return r.CountAtLeast(threshold) >= r.N/2
}

// Awareness runs the one-increment-one-read workload against the counter
// built by mk under a seeded random schedule and returns the awareness-set
// sizes measured by the simulation machine. k is recorded for threshold
// computation (pass 1 for exact counters).
func Awareness(mk func(f *prim.Factory) (object.Counter, error), n int, k uint64, seed int64) (AwarenessResult, error) {
	m := sim.NewMachine(n)
	defer m.Close()
	c, err := mk(m.Factory())
	if err != nil {
		return AwarenessResult{}, err
	}
	responses := make([]uint64, n)
	for i := 0; i < n; i++ {
		proc := i
		h := c.CounterHandle(m.Proc(i))
		m.Spawn(i, func(*prim.Proc) {
			h.Inc()
			responses[proc] = h.Read()
		})
	}
	steps := m.RunAll(sim.NewRandom(seed), 100_000_000)
	return AwarenessResult{
		N:          n,
		K:          k,
		Sizes:      m.Awareness().Sizes(),
		Responses:  responses,
		TotalSteps: steps,
	}, nil
}
