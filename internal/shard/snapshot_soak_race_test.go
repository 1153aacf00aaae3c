package shard_test

import (
	"sync"
	"testing"

	"approxobj/internal/shard"
)

// TestShardedSnapshotConcurrentSoak hammers sharded snapshots from n
// real goroutines (nil-Gate procs: the production atomic path) across
// shard counts and elision windows — every writer updating its own
// component with a non-monotone sequence while also scanning — then
// asserts the exact per-component values after flushing every handle.
// Run with -race this is the data-race check for the snapshot side of
// the backend plane.
func TestShardedSnapshotConcurrentSoak(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts []shard.Option
		perG int
	}{
		{name: "1shard", n: 4, perG: 2_000},
		{name: "4shards", n: 8, opts: []shard.Option{shard.Shards(4)}, perG: 2_000},
		{name: "4shards-batch16", n: 8,
			opts: []shard.Option{shard.Shards(4), shard.Batch(16)}, perG: 2_000},
		{name: "3shards-batch64", n: 6,
			opts: []shard.Option{shard.Shards(3), shard.Batch(64)}, perG: 1_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sn, err := shard.NewSnapshot(tc.n, 1, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*shard.SnapshotHandle, tc.n)
			for i := range handles {
				handles[i] = sn.Handle(i)
			}
			var wg sync.WaitGroup
			wg.Add(tc.n)
			for i := 0; i < tc.n; i++ {
				h := handles[i]
				id := uint64(i)
				go func() {
					defer wg.Done()
					for j := 1; j <= tc.perG; j++ {
						v := uint64(j)*3 + id
						h.Update(v)
						if j%16 == 0 {
							h.Update(v / 2) // non-monotone: must write through
							h.Update(v)
						}
						if j%500 == 0 {
							h.Scan()
						}
					}
				}()
			}
			wg.Wait()

			for _, h := range handles {
				h.Flush()
			}
			view := handles[0].Scan()
			for i := 0; i < tc.n; i++ {
				if want := uint64(tc.perG)*3 + uint64(i); view[i] != want {
					t.Errorf("component %d = %d after flush, want exactly %d", i, view[i], want)
				}
			}
		})
	}
}
