package shard_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"approxobj/internal/histogram"
	"approxobj/internal/satmath"
	"approxobj/internal/shard"
)

// runHistogramEnvelopeCheck drives `writers` goroutines, each observing
// the ascending values 1..perG (writer w's op j adds value j to its
// bucket), against a sharded histogram while one dedicated reader checks
// every concurrently merged read against the documented envelope: the
// count and every rank must be inside the rank-domain Buffer slack of
// the regularity window, with the value-domain rounding k applied to the
// rank's value argument. At quiescence after flushing, counts must be
// exact and quantiles inside pure bucket rounding.
func runHistogramEnvelopeCheck(t *testing.T, writers, perG int, k uint64, opts ...shard.Option) {
	t.Helper()
	bk, err := histogram.NewBuckets(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := writers + 1 // slot n-1 is the reader
	hg, err := shard.NewHistogram(n, k, bk.N(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	bounds := hg.Bounds()
	if bounds.Mult != k || bounds.Add != 0 {
		t.Fatalf("Bounds = %+v, want Mult %d and Add 0", bounds, k)
	}
	// The count/rank checks live in the rank domain, where the envelope
	// is exact up to the Buffer slack (Mult is value-domain rounding).
	rankBounds := shard.Bounds{Mult: 1, Buffer: bounds.Buffer}

	started := make([]atomic.Uint64, writers)   // ops started per writer
	completed := make([]atomic.Uint64, writers) // ops completed per writer
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(writers)
	handles := make([]*shard.HistHandle, writers)
	for i := 0; i < writers; i++ {
		h := hg.Handle(i)
		handles[i] = h
		i := i
		go func() {
			defer wg.Done()
			for j := 1; j <= perG; j++ {
				started[i].Store(uint64(j))
				h.Add(bk.Index(uint64(j)))
				completed[i].Store(uint64(j))
			}
		}()
	}

	// trueRank bounds A(v) — the number of observations with value <= v —
	// from the per-writer op progress: writer w's observed values are
	// exactly 1..ops_w, of which min(ops_w, v) are <= v.
	rankOf := func(ops []uint64, v uint64) uint64 {
		var r uint64
		for _, o := range ops {
			r += min(o, v)
		}
		return r
	}

	var checks uint64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rh := hg.Handle(n - 1)
		probes := []uint64{1, 7, uint64(perG) / 2, uint64(perG)}
		check := func() {
			a := make([]uint64, writers)
			for i := range a {
				a[i] = completed[i].Load()
			}
			counts := rh.Buckets()
			b := make([]uint64, writers)
			for i := range b {
				b[i] = started[i].Load()
			}
			checks++
			if c := histogram.Count(counts); !rankBounds.ContainsRange(rankOf(a, ^uint64(0)), rankOf(b, ^uint64(0)), c) {
				t.Errorf("count %d outside envelope %+v for any total in [%d, %d]", c, rankBounds, rankOf(a, ^uint64(0)), rankOf(b, ^uint64(0)))
			}
			for _, v := range probes {
				r := histogram.Rank(bk, counts, v)
				// Rank(v) counts observations up to Hi(Index(v)) — the
				// value-domain rounding — minus at most Buffer buffered ones.
				lo, hi := rankOf(a, v), rankOf(b, bk.Hi(bk.Index(v)))
				if !rankBounds.ContainsRange(lo, hi, r) {
					t.Errorf("Rank(%d) = %d outside envelope %+v for any true rank in [%d, %d]", v, r, rankBounds, lo, hi)
				}
			}
		}
		for !done.Load() {
			check()
		}
		check() // one fully quiescent read
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if checks == 0 {
		t.Fatal("reader performed no checks")
	}

	// Flush every writer: the rank-domain slack disappears and the merged
	// counts are exact; quantiles are pure bucket rounding.
	for _, h := range handles {
		h.Flush()
	}
	rh := hg.Handle(n - 1)
	counts := rh.Buckets()
	if c, want := histogram.Count(counts), uint64(writers*perG); c != want {
		t.Errorf("quiescent count = %d, want exactly %d", c, want)
	}
	for _, v := range []uint64{1, uint64(perG) / 3, uint64(perG)} {
		want := uint64(writers) * min(bk.Hi(bk.Index(v)), uint64(perG))
		if r := histogram.Rank(bk, counts, v); r != want {
			t.Errorf("quiescent Rank(%d) = %d, want exactly A(Hi) = %d", v, r, want)
		}
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := histogram.Quantile(bk, counts, q)
		// The multiset is 1..perG repeated `writers` times: the rank-r
		// value is ceil(r / writers).
		r := histogram.TargetRank(q, uint64(writers*perG))
		y := (r + uint64(writers) - 1) / uint64(writers)
		if got > y {
			t.Errorf("quiescent Quantile(%v) = %d overstates the rank value %d", q, got, y)
		} else if k > 1 && satmath.Mul(got, k) <= y {
			t.Errorf("quiescent Quantile(%v) = %d understates %d by more than factor %d", q, got, y, k)
		}
	}
}

// TestShardedHistogramEnvelopeSweep sweeps (writers, shards, batch,
// rounding factor), checking every concurrently merged read against the
// documented envelope. Bounds is identical for every shard count: the
// per-bucket sum over shards merges a partition of exact counts.
func TestShardedHistogramEnvelopeSweep(t *testing.T) {
	perG := 2_000
	if testing.Short() {
		perG = 300
	}
	for _, writers := range []int{1, 3} {
		for _, s := range []int{1, 2, 5} {
			for _, b := range []int{1, 8} {
				for _, k := range []uint64{2, 4} {
					t.Run(
						"w"+itoa(writers)+"-s"+itoa(s)+"-b"+itoa(b)+"-k"+itoa(int(k)),
						func(t *testing.T) {
							t.Parallel()
							runHistogramEnvelopeCheck(t, writers, perG, k,
								shard.Shards(s), shard.Batch(b))
						})
				}
			}
		}
	}
}

// TestHistogramShardingInvariance pins the composition claim directly:
// the envelope must not depend on the shard count.
func TestHistogramShardingInvariance(t *testing.T) {
	var want shard.Bounds
	for s := 1; s <= 4; s++ {
		hg, err := shard.NewHistogram(4, 3, 40, shard.Shards(s), shard.Batch(5))
		if err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			want = hg.Bounds()
			if want != (shard.Bounds{Mult: 3, Add: 0, Buffer: 16}) {
				t.Fatalf("unsharded histogram Bounds = %+v, want {Mult:3 Add:0 Buffer:16}", want)
			}
			continue
		}
		if got := hg.Bounds(); got != want {
			t.Errorf("S=%d Bounds = %+v, want %+v (independent of S)", s, got, want)
		}
	}
}

// TestHistogramBatching pins the bucket-batching semantics directly on
// the handle: observations below the batch threshold take no shared
// steps and stay invisible, the B-th observation flushes every pending
// bucket at once, and Flush drains the buffer.
func TestHistogramBatching(t *testing.T) {
	hg, err := shard.NewHistogram(2, 2, 8, shard.Shards(2), shard.Batch(4))
	if err != nil {
		t.Fatal(err)
	}
	w := hg.Handle(0)
	r := hg.Handle(1)

	shared := func(f func()) uint64 {
		before := w.Steps()
		f()
		return w.Steps() - before
	}

	// Three observations across two buckets: below the threshold, all
	// local.
	if s := shared(func() { w.Add(2); w.Add(5); w.Add(2) }); s != 0 {
		t.Errorf("3 buffered observations took %d shared steps, want 0", s)
	}
	if w.Pending() != 3 {
		t.Errorf("Pending = %d, want 3", w.Pending())
	}
	if c := histogram.Count(r.Buckets()); c != 0 {
		t.Errorf("count = %d before the batch filled, want 0", c)
	}

	// The 4th observation reaches B: every pending bucket flushes.
	if s := shared(func() { w.Add(5) }); s == 0 {
		t.Error("the batch-filling observation took no shared steps")
	}
	counts := r.Buckets()
	if counts[2] != 2 || counts[5] != 2 {
		t.Errorf("flushed counts = %v, want 2 in bucket 2 and 2 in bucket 5", counts)
	}
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after the flush, want 0", w.Pending())
	}

	// AddN counts d observations against the threshold in one call.
	w.AddN(1, 9)
	if c := histogram.Count(r.Buckets()); c != 13 {
		t.Errorf("count = %d after AddN(1, 9), want 13 (bulk add flushes immediately)", c)
	}

	// Flush drains a partial buffer.
	w.Add(3)
	w.Flush()
	if c := r.Buckets()[3]; c != 1 {
		t.Errorf("bucket 3 = %d after Flush, want 1", c)
	}
}

// TestNewHistogramValidation mirrors the other kinds' constructor checks.
func TestNewHistogramValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		buckets int
		opts    []shard.Option
		want    string // error substring; "" means valid
	}{
		{name: "ok", n: 4, buckets: 16, opts: []shard.Option{shard.Shards(3), shard.Batch(16)}},
		{name: "zero-procs", n: 0, buckets: 16, want: "process slot"},
		{name: "zero-buckets", n: 4, buckets: 0, want: "bucket"},
		{name: "zero-shards", n: 4, buckets: 16, opts: []shard.Option{shard.Shards(0)}, want: "shard count"},
		{name: "zero-batch", n: 4, buckets: 16, opts: []shard.Option{shard.Batch(0)}, want: "batch size"},
	} {
		_, err := shard.NewHistogram(tc.n, 2, tc.buckets, tc.opts...)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzHistogramAccuracy lets the fuzzer pick the configuration: any
// (writers, shards, batch, k, ops) combination must keep every
// concurrently merged read inside the envelope and every quiescent
// answer inside pure bucket rounding. The seeds cover the corners
// (single shard, batch 1, wide batch, both rounding factors); 'go test'
// runs them on every CI pass and 'go test -fuzz=FuzzHistogramAccuracy
// ./internal/shard' explores further.
func FuzzHistogramAccuracy(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint16(200))
	f.Add(uint8(3), uint8(4), uint8(8), uint8(2), uint16(1000))
	f.Add(uint8(4), uint8(2), uint8(64), uint8(7), uint16(2000))
	f.Fuzz(func(t *testing.T, writersIn, sIn, bIn, kIn uint8, opsIn uint16) {
		writers := int(writersIn)%4 + 1
		s := int(sIn)%8 + 1
		b := int(bIn)%64 + 1
		k := uint64(kIn)%15 + 2
		perG := int(opsIn)%2_000 + 50
		runHistogramEnvelopeCheck(t, writers, perG, k,
			shard.Shards(s), shard.Batch(b))
	})
}
