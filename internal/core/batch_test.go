package core

import (
	"math/rand"
	"slices"
	"testing"

	"crackdb/internal/expr"
)

// TestBatchStaleSnapshotSameAnswers: a batch that finds the cut snapshot
// stale runs on per-query lookups instead of rebuilding it. Against a
// twin column that always rebuilds (quiet forced to the live version,
// the pre-rule behaviour), every batch returns the same counts and
// value sets and the two columns execute the same number of cracks —
// while batches, scalar selects and inserts keep moving the index.
func TestBatchStaleSnapshotSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = rng.Int63n(100_000)
	}
	lazy, eager := NewColumn("a", vals), NewColumn("a", vals)
	pool := make([]expr.Range, 256)
	for i := range pool {
		lo := rng.Int63n(100_000)
		pool[i] = expr.Range{Col: "a", Low: lo, High: lo + rng.Int63n(2000), LowIncl: rng.Intn(2) == 0, HighIncl: rng.Intn(2) == 0}
	}
	built := 0
	for round := 0; round < 200; round++ {
		batch := make([]expr.Range, 8+rng.Intn(56))
		for i := range batch {
			batch[i] = pool[rng.Intn(len(pool))]
		}
		switch rng.Intn(8) {
		case 0: // a scalar crack between batches: the snapshot goes stale
			lo := rng.Int63n(100_000)
			lazy.Select(lo, lo+50, true, false)
			eager.Select(lo, lo+50, true, false)
		case 1:
			v := rng.Int63n(100_000)
			lazy.Insert(v)
			eager.Insert(v)
		}
		ordered, countOnly := rng.Intn(2) == 0, rng.Intn(2) == 0
		eager.mu.RLock()
		eager.quiet.Store(eager.idx.Version())
		eager.mu.RUnlock()
		before := lazy.snap.Load()
		got, _ := lazy.SelectBatch(batch, ordered, countOnly)
		want, _ := eager.SelectBatch(batch, ordered, countOnly)
		if lazy.snap.Load() != before {
			built++
		}
		for i := range batch {
			if got[i].N != want[i].N {
				t.Fatalf("round %d %v: count %d, always-rebuild twin %d", round, batch[i], got[i].N, want[i].N)
			}
			g, w := slices.Clone(got[i].Vals), slices.Clone(want[i].Vals)
			slices.Sort(g)
			slices.Sort(w)
			if !slices.Equal(g, w) {
				t.Fatalf("round %d %v: value sets differ", round, batch[i])
			}
		}
		if g, w := lazy.Stats().Cracks, eager.Stats().Cracks; g != w {
			t.Fatalf("round %d: %d cracks, always-rebuild twin %d", round, g, w)
		}
	}
	if built == 0 || built > 100 {
		t.Fatalf("snapshot built by %d of 200 batches: want some (the pool converges) but not one per batch", built)
	}
}
