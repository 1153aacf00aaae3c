package main

import (
	"math"
	"math/bits"
	"time"
)

// recorder is a preallocated log-bucketed latency histogram. Values below
// 256 are kept exactly; above that each power of two is split into 128
// buckets, so a bucket spans at most 1/128 of its lower edge and a
// quantile, interpolated inside its bucket, is within 1/128 (< 1%) of
// the true one. It is deliberately independent of the library's own histogram, so the tool
// shares no code with the system it measures. A recorder is owned by one
// goroutine; merge recorders after the goroutines stop.
type recorder struct {
	counts [recBuckets]uint64
	n      uint64
}

const (
	recBits    = 7
	recSub     = 1 << recBits
	recExact   = 2 * recSub
	recBuckets = recExact + (63-recBits)*recSub
)

func recIndex(v uint64) int {
	if v < recExact {
		return int(v)
	}
	shift := bits.Len64(v) - recBits - 1
	return recExact + (shift-1)*recSub + int(v>>shift) - recSub
}

// recLo returns the lower edge of bucket i (recLo(i+1) is its upper
// edge).
func recLo(i int) float64 {
	if i < recExact {
		return float64(i)
	}
	shift := (i-recExact)/recSub + 1
	return float64(uint64(recSub+(i-recExact)%recSub) << shift)
}

func (r *recorder) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.counts[recIndex(uint64(d))]++
	r.n++
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolated linearly by rank inside its bucket above the exact range.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := min(max(q*float64(r.n), 1), float64(r.n))
	var seen float64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i < recExact {
				return float64(i)
			}
			lo, hi := recLo(i), recLo(i+1)
			return lo + (hi-lo)*min(max((rank-seen-0.5)/float64(c), 0), 1)
		}
		seen += float64(c)
	}
	return recLo(recBuckets)
}

// medianInterval returns a 95% confidence interval of the median of the
// recorded samples: the samples at ranks n/2 ± 0.98·√n (the binomial
// interval in its normal approximation).
func (r *recorder) medianInterval() (lo, hi float64) {
	d := 0.98 / math.Sqrt(float64(max(r.n, 1)))
	return r.quantile(max(0.5-d, 0)), r.quantile(min(0.5+d, 1))
}

// clockCost measures the cost of one clock read (now), the overhead
// every latency sample and span boundary carries.
func clockCost() float64 {
	const reads = 1 << 16
	var rec recorder
	for range 15 {
		t0 := now()
		var t int64
		for range reads {
			t = now()
		}
		rec.add(time.Duration((t - t0) * 1000 / reads)) // in picoseconds, for resolution
	}
	return rec.quantile(0.5) / 1000
}
