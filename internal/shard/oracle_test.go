package shard_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/shard"
	"crackdb/internal/strategy"
	"crackdb/internal/workload"
)

// canonical serializes rows in the canonical lexicographic order, so two
// results compare byte-identical iff they hold the same multiset of
// tuples. The input is sorted in place.
func canonical(rows [][]int64) string {
	core.SortRows(rows)
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardOracle is the sharding correctness property: for every
// partition kind × shard count × crack strategy × workload pattern, a
// sharded store must answer the exact query stream a single store
// answers, byte-identically — counts, tuples and group counts. The
// stream mixes range selects, point lookups, non-key predicates and a
// mid-stream insert, so routing, fan-out merge and pending-update
// consolidation are all on the hook.
func TestShardOracle(t *testing.T) {
	const (
		n       = 1500
		queries = 40
	)
	kinds := []shard.Kind{shard.Hash, shard.Range}
	shardCounts := []int{1, 2, 4}
	strategies := strategy.Names() // standard, ddc, ddr, mdd1r
	for _, kind := range kinds {
		for _, nShards := range shardCounts {
			for _, strat := range strategies {
				for _, pattern := range workload.Patterns() {
					name := fmt.Sprintf("%s/%d/%s/%s", kind, nShards, strat, pattern)
					t.Run(name, func(t *testing.T) {
						runOracleCell(t, kind, nShards, strat, pattern, n, queries)
					})
				}
			}
		}
	}
}

func runOracleCell(t *testing.T, kind shard.Kind, nShards int, strat string, pattern workload.Pattern, n, queries int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(int64(n)), int64(i), rng.Int63n(64)}
	}
	extra := make([][]int64, 50)
	for i := range extra {
		extra[i] = []int64{rng.Int63n(int64(n)), int64(n + i), rng.Int63n(64)}
	}

	single := crackdb.New()
	if err := single.SetCrackStrategy(strat, 7); err != nil {
		t.Fatal(err)
	}
	if err := single.CreateTable("t", "k", "v", "g"); err != nil {
		t.Fatal(err)
	}
	if err := single.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	sharded := shard.New(shard.Options{Shards: nShards, Kind: kind, Domain: [2]int64{0, int64(n) - 1}})
	if err := sharded.SetCrackStrategy(strat, 7); err != nil {
		t.Fatal(err)
	}
	if err := sharded.CreateTable("t", "k", "v", "g"); err != nil {
		t.Fatal(err)
	}
	if err := sharded.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(pattern, workload.Config{
		Domain: int64(n), Count: queries, Selectivity: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; ; qi++ {
		q, ok := gen.Next()
		if !ok {
			break
		}
		if qi == queries/2 {
			if err := single.InsertRows("t", extra); err != nil {
				t.Fatal(err)
			}
			if err := sharded.InsertRows("t", extra); err != nil {
				t.Fatal(err)
			}
		}
		conds := []crackdb.Cond{{Col: "k", Op: ">=", Val: q.Lo}, {Col: "k", Op: "<", Val: q.Hi}}
		switch {
		case qi%5 == 3: // point lookup on the partition key
			conds = []crackdb.Cond{{Col: "k", Op: "=", Val: q.Lo}}
		case qi%5 == 4: // add a non-key predicate to the range
			conds = append(conds, crackdb.Cond{Col: "g", Op: "<", Val: 32})
		}

		wantRes, err := single.SelectWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := sharded.SelectWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		if wantRes.Count() != gotRes.Count() {
			t.Fatalf("query %d %v: count %d, oracle %d", qi, conds, gotRes.Count(), wantRes.Count())
		}
		wantRows, err := wantRes.Rows("k", "v", "g")
		if err != nil {
			t.Fatal(err)
		}
		gotRows, err := gotRes.Rows("k", "v", "g")
		if err != nil {
			t.Fatal(err)
		}
		if want, got := canonical(wantRows), canonical(gotRows); want != got {
			t.Fatalf("query %d %v: sharded result diverges from oracle\noracle:\n%s\nsharded:\n%s", qi, conds, want, got)
		}

		wantN, err := single.CountWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := sharded.CountWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		if wantN != gotN {
			t.Fatalf("query %d %v: CountWhere %d, oracle %d", qi, conds, gotN, wantN)
		}
	}

	// The Ω cracker must merge to identical group counts.
	wantG, err := single.GroupBy("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := sharded.GroupBy("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(wantG) != len(gotG) {
		t.Fatalf("GroupBy: %d groups, oracle %d", len(gotG), len(wantG))
	}
	for i := range wantG {
		if wantG[i] != gotG[i] {
			t.Fatalf("GroupBy[%d]: %+v, oracle %+v", i, gotG[i], wantG[i])
		}
	}
}

// TestShardStatsLocality checks that crack state is shard-local: under
// range partitioning, a query stream confined to one shard's key
// interval must leave the other shards' crack counters untouched.
func TestShardStatsLocality(t *testing.T) {
	const n = 4000
	s := shard.New(shard.Options{Shards: 4, Kind: shard.Range, Domain: [2]int64{0, n - 1}})
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), rng.Int63n(1000)}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// Queries confined to the first quarter of the key space.
	for i := 0; i < 32; i++ {
		lo := rng.Int63n(n / 5)
		if _, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: lo}, crackdb.Cond{Col: "k", Op: "<", Val: lo + 50}); err != nil {
			t.Fatal(err)
		}
	}
	per, err := s.ShardStats("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if per[0].Queries == 0 || per[0].Cracks == 0 {
		t.Fatalf("shard 0 should have absorbed the stream: %+v", per[0])
	}
	for i := 1; i < 4; i++ {
		if per[i].Queries != 0 || per[i].Cracks != 0 {
			t.Fatalf("shard %d saw queries outside its key interval: %+v", i, per[i])
		}
	}
}

// TestShardConcurrent hammers one sharded store from many goroutines —
// the race detector is the assertion.
func TestShardConcurrent(t *testing.T) {
	const n = 5000
	s := shard.New(shard.Options{Shards: 4, Kind: shard.Hash})
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range rows {
		rows[i] = []int64{rng.Int63n(n), int64(i)}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				lo := rng.Int63n(n - 100)
				switch i % 4 {
				case 0:
					if _, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: lo}, crackdb.Cond{Col: "k", Op: "<", Val: lo + 100}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					res, err := s.SelectWhere("t", crackdb.Cond{Col: "k", Op: "=", Val: lo})
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := res.Rows("k", "v"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if err := s.InsertRows("t", [][]int64{{lo, int64(n + i)}}); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := s.ShardStats("t", "k"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLoadTapestry checks the generator path: every key of the
// permutation lands on exactly one shard and point counts are exact.
func TestLoadTapestry(t *testing.T) {
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		s := shard.New(shard.Options{Shards: 3, Kind: kind})
		if err := s.LoadTapestry("b", 999, 2, 5); err != nil {
			t.Fatal(err)
		}
		total, err := s.NumRows("b")
		if err != nil {
			t.Fatal(err)
		}
		if total != 999 {
			t.Fatalf("%s: %d rows, want 999", kind, total)
		}
		// The tapestry key column is a permutation of 1..n: every range
		// count is exactly its width.
		c, err := s.CountWhere("b", crackdb.Cond{Col: "c0", Op: ">=", Val: 100}, crackdb.Cond{Col: "c0", Op: "<", Val: 300})
		if err != nil {
			t.Fatal(err)
		}
		if c != 200 {
			t.Fatalf("%s: count %d, want 200", kind, c)
		}
	}
}

// TestUpdateFoldOracle: a converged store keeps answering exactly under
// interleaved inserts, deletes, counts and row fetches — single store ≡
// four-shard router (hash and range) ≡ a plain slice of rows that was
// never cracked — and it stays converged: every fold on the key column
// keeps the cracker index. Batches land inside the domain (cuts shift),
// above it (appends past the last cut) and on top of deleted ranges.
func TestUpdateFoldOracle(t *testing.T) {
	const n = 12000
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			var model [][]int64
			nextID := int64(0)
			newRows := func(k int, key func() int64) [][]int64 {
				rows := make([][]int64, k)
				for i := range rows {
					rows[i] = []int64{key(), nextID, rng.Int63n(64)}
					nextID++
				}
				return rows
			}
			inDomain := func() int64 { return rng.Int63n(n) }

			single := crackdb.New()
			sharded := shard.New(shard.Options{Shards: 4, Kind: kind, Domain: [2]int64{0, n - 1}})
			stores := []crackdb.Backend{single.Backend(), sharded}
			for _, s := range stores {
				if err := s.CreateTable("t", "k", "v", "g"); err != nil {
					t.Fatal(err)
				}
			}
			insert := func(rows [][]int64) {
				for _, s := range stores {
					if err := s.InsertRows("t", rows); err != nil {
						t.Fatal(err)
					}
				}
				model = append(model, rows...)
			}
			match := func(row []int64, conds []crackdb.Cond) bool {
				for _, c := range conds {
					v := row[map[string]int{"k": 0, "v": 1, "g": 2}[c.Col]]
					if c.Op == ">=" && v < c.Val || c.Op == "<" && v >= c.Val {
						return false
					}
				}
				return true
			}
			check := func(step int, conds []crackdb.Cond) {
				t.Helper()
				var want [][]int64
				for _, row := range model {
					if match(row, conds) {
						want = append(want, row)
					}
				}
				wantRows := canonical(want)
				for i, s := range stores {
					got, err := s.CountWhere("t", conds...)
					if err != nil {
						t.Fatal(err)
					}
					if got != len(want) {
						t.Fatalf("step %d store %d: CountWhere%v = %d, model %d", step, i, conds, got, len(want))
					}
					res, err := s.SelectWhere("t", conds...)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := res.Rows("k", "v", "g")
					if err != nil {
						t.Fatal(err)
					}
					if canonical(rows) != wantRows {
						t.Fatalf("step %d store %d: rows for %v diverge from the model", step, i, conds)
					}
					if len(conds) != 2 {
						continue
					}
					// A pure key range again through Select, whose Rows reads
					// the key column's sideways payload vectors.
					sel, err := s.Select("t", "k", conds[0].Val, conds[1].Val-1)
					if err != nil {
						t.Fatal(err)
					}
					if rows, err = sel.Rows("k", "v", "g"); err != nil {
						t.Fatal(err)
					}
					if canonical(rows) != wantRows {
						t.Fatalf("step %d store %d: Select(%v).Rows diverges from the model", step, i, conds)
					}
				}
			}
			keyRange := func(width int64) []crackdb.Cond {
				lo := rng.Int63n(n + 200)
				return []crackdb.Cond{{Col: "k", Op: ">=", Val: lo}, {Col: "k", Op: "<", Val: lo + width}}
			}

			insert(newRows(n, inDomain))
			for q := 0; q < 150; q++ { // converge
				check(-1, keyRange(240))
			}
			foldsBefore := func() (ripple, rebuild int) {
				per, err := sharded.ShardStats("t", "k")
				if err != nil {
					t.Fatal(err)
				}
				st, err := single.Stats("t", "k")
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range append(per, st) {
					ripple, rebuild = ripple+cs.RippleFolds, rebuild+cs.RebuildFolds
				}
				return ripple, rebuild
			}
			ripple0, rebuild0 := foldsBefore()

			top := int64(n)
			for step := 0; step < 80; step++ {
				switch step % 4 {
				case 0:
					insert(newRows(16, inDomain))
				case 1:
					insert(newRows(16, func() int64 { top++; return top }))
				case 2:
					conds := keyRange(100)
					if step%8 == 6 { // a delete the key column's cracker never sees as a range
						lo := rng.Int63n(nextID)
						conds = []crackdb.Cond{{Col: "v", Op: ">=", Val: lo}, {Col: "v", Op: "<", Val: lo + 10}}
					}
					kept := model[:0]
					for _, row := range model {
						if !match(row, conds) {
							kept = append(kept, row)
						}
					}
					for i, s := range stores {
						got, err := s.Delete("t", conds...)
						if err != nil {
							t.Fatal(err)
						}
						if got != len(model)-len(kept) {
							t.Fatalf("step %d store %d: Delete%v removed %d rows, model %d", step, i, conds, got, len(model)-len(kept))
						}
					}
					model = kept
				}
				check(step, keyRange(240))
				if step%5 == 0 {
					check(step, append(keyRange(1200), crackdb.Cond{Col: "g", Op: "<", Val: 32}))
				}
			}
			ripple1, rebuild1 := foldsBefore()
			if ripple1 == ripple0 || rebuild1 != rebuild0 {
				t.Fatalf("folds on the converged key column: %d ripple, %d rebuild — the update phase must ripple only",
					ripple1-ripple0, rebuild1-rebuild0)
			}
			// The payload vectors rode every one of those folds: gathered
			// once, never declined, never fetched around.
			if st := single.SidewaysStats(); st.Builds != 2 || st.Declines != 0 || st.Fallbacks != 0 || st.Projections == 0 {
				t.Fatalf("sideways payloads did not ride the update phase: %+v", st)
			}
		})
	}
}
