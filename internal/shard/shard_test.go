package shard_test

import (
	"strings"
	"testing"
	"time"

	"approxobj/internal/core"
	"approxobj/internal/prim"
	"approxobj/internal/shard"
)

// closer is what every constructor under TestNewValidation returns.
type closer interface{ Close() }

// validationKinds lists every constructor that takes the shared option
// family: the four cumulative kinds and their windowed rings (an hour
// window, so no rotation fires during the test).
var validationKinds = []struct {
	name string
	mk   func(n int, k uint64, opts ...shard.Option) (closer, error)
}{
	{"counter", func(n int, k uint64, opts ...shard.Option) (closer, error) { return shard.New(n, k, opts...) }},
	{"maxreg", func(n int, k uint64, opts ...shard.Option) (closer, error) { return shard.NewMaxReg(n, k, opts...) }},
	{"snapshot", func(n int, k uint64, opts ...shard.Option) (closer, error) { return shard.NewSnapshot(n, k, opts...) }},
	{"histogram", func(n int, k uint64, opts ...shard.Option) (closer, error) {
		return shard.NewHistogram(n, k, 16, opts...)
	}},
	{"windowed-counter", func(n int, k uint64, opts ...shard.Option) (closer, error) {
		return shard.NewWindowedCounter(n, k, time.Hour, 2, opts...)
	}},
	{"windowed-maxreg", func(n int, k uint64, opts ...shard.Option) (closer, error) {
		return shard.NewWindowedMaxReg(n, k, time.Hour, 2, opts...)
	}},
	{"windowed-snapshot", func(n int, k uint64, opts ...shard.Option) (closer, error) {
		return shard.NewWindowedSnapshot(n, k, time.Hour, 2, opts...)
	}},
	{"windowed-histogram", func(n int, k uint64, opts ...shard.Option) (closer, error) {
		return shard.NewWindowedHistogram(n, k, 16, time.Hour, 2, opts...)
	}},
}

// TestNewValidation runs one table of configurations against every
// constructor: the option family is shared, so its validation must be
// too. A backend built for another kind is accepted by the type system
// (WithBackend is generic) and must be refused at construction.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		only string // a counter-only row names its kind; "" runs on all
		n    int
		k    uint64
		opts []shard.Option
		want string // substring of the error, "" for success
	}{
		{name: "ok-defaults", n: 4, k: 2},
		{name: "ok-sharded-batched", n: 8, k: 4, opts: []shard.Option{shard.Shards(4), shard.Batch(16)}},
		{name: "ok-read-cache", n: 4, k: 2, opts: []shard.Option{shard.ReadCache(time.Hour)}},
		{name: "no-processes", n: 0, k: 2, want: "at least one process"},
		{name: "zero-shards", n: 4, k: 2, opts: []shard.Option{shard.Shards(0)}, want: "shard count"},
		{name: "zero-batch", n: 4, k: 2, opts: []shard.Option{shard.Batch(0)}, want: "batch size"},
		{name: "negative-staleness", n: 4, k: 2, opts: []shard.Option{shard.ReadCache(-time.Second)}, want: "staleness"},
		{name: "read-cache-one-slot", n: 1, k: 2, opts: []shard.Option{shard.ReadCache(time.Hour)}, want: "combiner slot"},
		// Backends of another kind: a counter backend everywhere but on
		// counters, which get a max-register one.
		{name: "foreign-backend", only: "!counter", n: 4, k: 2,
			opts: []shard.Option{shard.WithBackend(shard.MultBackend())}, want: "another object kind"},
		{name: "foreign-backend", only: "counter", n: 4, k: 2,
			opts: []shard.Option{shard.WithBackend(shard.ExactMaxBackend())}, want: "another object kind"},
		{name: "foreign-backend-snapshot", only: "histogram", n: 4, k: 2,
			opts: []shard.Option{shard.WithBackend(shard.ExactSnapshotBackend())}, want: "another object kind"},
		// The mult backend's k >= sqrt(n) precondition applies per shard
		// (every shard has n slots) and surfaces through New.
		{name: "k-too-small", only: "counter", n: 16, k: 2, want: "sqrt(n)"},
		{name: "aach-ignores-k", only: "counter", n: 16, k: 2, opts: []shard.Option{shard.WithBackend(shard.AACHBackend())}},
	} {
		for _, kind := range validationKinds {
			base := strings.TrimPrefix(kind.name, "windowed-")
			switch {
			case tc.only == "":
			case strings.HasPrefix(tc.only, "!"):
				if base == tc.only[1:] {
					continue
				}
			case base != tc.only:
				continue
			}
			obj, err := kind.mk(tc.n, tc.k, tc.opts...)
			if tc.want == "" {
				if err != nil {
					t.Errorf("%s/%s: unexpected error %v", kind.name, tc.name, err)
					continue
				}
				obj.Close()
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: got error %v, want one containing %q", kind.name, tc.name, err, tc.want)
				if err == nil {
					obj.Close()
				}
			}
		}
	}
}

// TestExactShardingSequential drives the exact AACH backend sequentially:
// with Mult=1, Add=0, Buffer=0 the combined read must equal the true count
// after any prefix, across shard counts and handle placements.
func TestExactShardingSequential(t *testing.T) {
	for _, s := range []int{1, 2, 3, 5} {
		const n = 5
		c, err := shard.New(n, 0, shard.Shards(s), shard.WithBackend(shard.AACHBackend()))
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*shard.Handle, n)
		for i := range handles {
			handles[i] = c.Handle(i)
		}
		var v uint64
		for round := 0; round < 40; round++ {
			h := handles[round%n]
			for j := 0; j <= round%3; j++ {
				h.Inc()
				v++
			}
			if got := handles[(round+1)%n].Read(); got != v {
				t.Fatalf("S=%d: after %d incs read %d", s, v, got)
			}
		}
	}
}

// TestBatchBuffering checks the batch semantics directly on the exact
// backend: B-1 increments stay invisible, the B-th flushes all of them,
// and Flush drains a partial buffer.
func TestBatchBuffering(t *testing.T) {
	const b = 4
	c, err := shard.New(2, 0, shard.Shards(2), shard.Batch(b), shard.WithBackend(shard.AACHBackend()))
	if err != nil {
		t.Fatal(err)
	}
	w, r := c.Handle(0), c.Handle(1)
	for j := 1; j < b; j++ {
		w.Inc()
		if got := r.Read(); got != 0 {
			t.Fatalf("after %d buffered incs read %d, want 0", j, got)
		}
	}
	if got := w.Pending(); got != b-1 {
		t.Fatalf("pending = %d, want %d", got, b-1)
	}
	w.Inc() // B-th increment flushes the whole buffer
	if got := r.Read(); got != b {
		t.Fatalf("after flush-triggering inc read %d, want %d", got, b)
	}
	w.Inc()
	w.Flush()
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending after Flush = %d, want 0", got)
	}
	if got := r.Read(); got != b+1 {
		t.Fatalf("after explicit Flush read %d, want %d", got, b+1)
	}
}

func TestBounds(t *testing.T) {
	mult, err := shard.New(4, 4, shard.Shards(3), shard.Batch(8))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mult.Bounds(), (shard.Bounds{Mult: 4, Add: 0, Buffer: 7 * 4}); got != want {
		t.Errorf("mult bounds = %+v, want %+v", got, want)
	}
	add, err := shard.New(4, 10, shard.Shards(3), shard.WithBackend(shard.AdditiveBackend()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := add.Bounds(), (shard.Bounds{Mult: 1, Add: 30, Buffer: 0}); got != want {
		t.Errorf("additive bounds = %+v, want %+v", got, want)
	}
	exact, err := shard.New(4, 0, shard.WithBackend(shard.AACHBackend()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exact.Bounds(), (shard.Bounds{Mult: 1}); got != want {
		t.Errorf("exact bounds = %+v, want %+v", got, want)
	}
}

func TestBoundsContains(t *testing.T) {
	exact := shard.Bounds{Mult: 1}
	if !exact.Contains(7, 7) || exact.Contains(7, 6) || exact.Contains(7, 8) {
		t.Error("exact bounds must admit only x == v")
	}
	m := shard.Bounds{Mult: 2}
	for _, tc := range []struct {
		v, x uint64
		ok   bool
	}{
		{100, 50, true}, {100, 200, true}, {100, 49, false}, {100, 201, false},
		{0, 0, true}, {0, 1, false},
		{101, 51, true}, {101, 50, false}, // lower bound v/k over the reals, not integer division
	} {
		if got := m.Contains(tc.v, tc.x); got != tc.ok {
			t.Errorf("mult2.Contains(%d, %d) = %v, want %v", tc.v, tc.x, got, tc.ok)
		}
	}
	buf := shard.Bounds{Mult: 2, Buffer: 10}
	if !buf.Contains(100, 45) { // (100-10)/2 = 45 is reachable with a full buffer
		t.Error("buffered lower bound should admit (v-Buffer)/Mult")
	}
	if buf.Contains(100, 44) {
		t.Error("buffered lower bound should reject below (v-Buffer)/Mult")
	}
	if buf.Contains(100, 201) {
		t.Error("buffering must not raise the upper bound")
	}
	if !buf.ContainsRange(100, 110, 220) || buf.ContainsRange(100, 110, 221) {
		t.Error("ContainsRange must apply the upper bound at vmax")
	}
	if !buf.ContainsRange(100, 110, 45) || buf.ContainsRange(100, 110, 44) {
		t.Error("ContainsRange must apply the lower bound at vmin")
	}
}

// TestMultIncNEquivalence drives two identical MultCounters sequentially,
// one via Inc and one via IncN, and requires identical observable state:
// the batched flush path must be indistinguishable from the loop it
// replaces.
func TestMultIncNEquivalence(t *testing.T) {
	mk := func() (*core.MultCounter, *core.MultHandle) {
		f := prim.NewFactory(3)
		c, err := core.NewMultCounter(f, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c, c.Handle(f.Proc(0))
	}
	c1, h1 := mk()
	c2, h2 := mk()
	var total uint64
	for _, d := range []uint64{1, 3, 7, 64, 100} {
		for i := uint64(0); i < d; i++ {
			h1.Inc()
		}
		h2.IncN(d)
		total += d
		r1, r2 := h1.Read(), h2.Read()
		if r1 != r2 {
			t.Fatalf("after %d incs: Inc-loop read %d, IncN read %d", total, r1, r2)
		}
		for i := uint64(0); i < 3*total; i++ {
			if c1.SwitchState(i) != c2.SwitchState(i) {
				t.Fatalf("after %d incs: switch %d differs", total, i)
			}
		}
	}
}

// TestShardedSteps sanity-checks the cost model the sharding exists for:
// with batching, the amortized shared steps per Inc drop by roughly the
// batch factor on backends with a real bulk path.
func TestShardedSteps(t *testing.T) {
	run := func(batch int) uint64 {
		c, err := shard.New(1, 0, shard.Batch(batch), shard.WithBackend(shard.AACHBackend()))
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handle(0)
		for i := 0; i < 1024; i++ {
			h.Inc()
		}
		return h.Steps()
	}
	plain, batched := run(1), run(64)
	if batched*8 > plain {
		t.Errorf("batch=64 took %d steps vs %d unbatched; expected >= 8x reduction", batched, plain)
	}
}
