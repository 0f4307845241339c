package shard_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"crackdb"
	"crackdb/internal/oracle"
	"crackdb/internal/shard"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// retired names the stochastic strategies the store no longer has; a
// switch to one is refused and an image naming one does not open.
var retired = []string{"ddc", "mdd1r"}

// TestShardOracle: a router of every partition kind × shard count
// answers what a single store answers, under every crack strategy × key
// pattern — range, point and non-key predicates, GROUP BY and inserts
// mid-stream — so routing, fan-out merge and pending-update
// consolidation are all on the hook. A retired strategy's cells set
// ddr, then switch to the retired name: the store and the router must
// refuse it, naming it and the accepted strategies, and every shard must
// keep cracking under ddr through the stream.
func TestShardOracle(t *testing.T) {
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		for _, n := range []int{1, 2, 4} {
			for _, strat := range append(strategy.Names(), retired...) {
				for _, pat := range workload.Patterns() {
					t.Run(fmt.Sprintf("%s/%d/%s/%s", kind, n, strat, pat), func(t *testing.T) {
						single, router := crackdb.New(), shard.New(shard.Options{Shards: n, Kind: kind})
						runs := strat
						if slices.Contains(retired, strat) {
							runs = "ddr"
						}
						mustExec(t, single.SetCrackStrategy(runs, 7))
						mustExec(t, router.SetCrackStrategy(runs, 7))
						if runs != strat {
							mustRefuse(t, single.SetCrackStrategy(strat, 7), strat)
							mustRefuse(t, router.SetCrackStrategy(strat, 7), strat)
						}
						oracle.Run(t, oracle.New(oracle.Config{Seed: 99, Ops: 40, Load: 1500, Domain: 1500, Selectivity: 0.05,
							Pattern: pat, MaxBatch: 50,
							Mix: oracle.Mix{oracle.Count: 4, oracle.Select: 3, oracle.Group: 1, oracle.Insert: 1}}),
							nil, oracle.Single(single), oracle.Router(router))
						stats, err := router.ShardStats("t", "k")
						mustExec(t, err)
						st, err := single.Stats("t", "k")
						mustExec(t, err)
						for _, st := range append(stats, st) {
							if st.Strategy != runs {
								t.Fatalf("a key column runs %q, want %q", st.Strategy, runs)
							}
						}
					})
				}
			}
		}
	}
}

// mustRefuse fails t unless err refuses the strategy name, naming it
// and the strategies a store accepts.
func mustRefuse(t *testing.T, err error, name string) {
	t.Helper()
	if err == nil {
		t.Fatalf("SetCrackStrategy(%q) accepted", name)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", name)) || !strings.Contains(msg, strings.Join(strategy.Names(), ", ")) {
		t.Fatalf("SetCrackStrategy(%q) refused with %q", name, msg)
	}
}

// TestTermPlannerOracle: random conjunctions — every operator, bounds at
// the int64 extremes, repeats on one column, empty, inverted and
// unsatisfiable ranges, unknown columns and operators — between inserts
// and deletes answer the model, error text included, on a store, a
// 4-shard router and SQL over a one-shard and the 4-shard router, under
// every strategy and autotune.
func TestTermPlannerOracle(t *testing.T) {
	for _, cfg := range append(strategy.Names(), "autotune") {
		t.Run(cfg, func(t *testing.T) {
			o := shard.Options{Shards: 4, Kind: shard.Hash}
			single, router, sqlSingle, sqlRouter := crackdb.New(), shard.New(o), shard.New(shard.Options{}), shard.New(o)
			for _, st := range []interface {
				SetCrackStrategy(string, int64) error
				EnableAutotune(tuner.Config)
			}{single, router, sqlSingle, sqlRouter} {
				if cfg == "autotune" {
					st.EnableAutotune(tuner.Config{Window: 8, Confirm: 1, Cooldown: 8})
				} else {
					mustExec(t, st.SetCrackStrategy(cfg, 5))
				}
			}
			oracle.Run(t, oracle.New(oracle.Config{Seed: 83, Ops: 300, Load: 400, Domain: 120, MaxBatch: 40, Bad: 15,
				Mix: oracle.Mix{oracle.Count: 5, oracle.CountBatch: 2, oracle.Select: 3, oracle.Delete: 1, oracle.Insert: 1}}), nil,
				oracle.Single(single), oracle.Router(router),
				oracle.Engine("sql over a one-shard router", sqlSingle), oracle.Engine("sql over a router", sqlRouter))
		})
	}
}

// TestUpdateFoldOracle: a converged store keeps answering exactly under
// interleaved inserts (inside the domain, where cuts shift, and above
// it), deletes by key and by id, counts and row fetches — single store
// and 4-shard router (hash and range) alike — and stays converged: every
// fold on the key column keeps the cracker index, and the payload
// vectors ride every fold instead of being gathered again.
func TestUpdateFoldOracle(t *testing.T) {
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		t.Run(string(kind), func(t *testing.T) {
			single, router := crackdb.New(), shard.New(shard.Options{Shards: 4, Kind: kind})
			ps := []oracle.Posture{oracle.Single(single), oracle.Router(router)}
			m := oracle.Run(t, oracle.New(oracle.Config{Seed: 41, Ops: 150, Load: 12_000, Domain: 12_000,
				Selectivity: 0.02, Mix: oracle.Mix{oracle.Count: 1}}), nil, ps...)
			folds := func() (ripple, rebuild int) {
				per, err := router.ShardStats("t", "k")
				mustExec(t, err)
				st, err := single.Stats("t", "k")
				mustExec(t, err)
				for _, cs := range append(per, st) {
					ripple, rebuild = ripple+cs.RippleFolds, rebuild+cs.RebuildFolds
				}
				return ripple, rebuild
			}
			ripple0, rebuild0 := folds()
			oracle.Run(t, oracle.New(oracle.Config{Seed: 42, Ops: 80, Domain: 12_000, Selectivity: 0.02, MaxBatch: 16,
				Mix: oracle.Mix{oracle.Insert: 2, oracle.Delete: 1, oracle.Count: 2, oracle.Select: 1, oracle.Fetch: 2}}),
				m, ps...)
			if ripple1, rebuild1 := folds(); ripple1 == ripple0 || rebuild1 != rebuild0 {
				t.Fatalf("folds on the converged key column: %d ripple, %d rebuild — the update phase must ripple only",
					ripple1-ripple0, rebuild1-rebuild0)
			}
			if st := single.SidewaysStats(); st.Builds != int64(st.Pays) || st.Declines != 0 || st.Fallbacks != 0 || st.Projections == 0 {
				t.Fatalf("payload vectors did not ride the update phase: %+v", st)
			}
		})
	}
}

// TestShardStatsLocality checks that crack state is shard-local: under
// range partitioning, a query stream confined to one shard's key
// interval must leave the other shards' crack counters untouched.
func TestShardStatsLocality(t *testing.T) {
	const n = 4000
	s := shard.New(shard.Options{Shards: 4, Kind: shard.Range})
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
