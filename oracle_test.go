package crackdb_test

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/oracle"
	"crackdb/internal/shard"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// The store's oracles: each runs internal/oracle's generator against its
// model on the postures of its subject, then checks what answers cannot
// show — payload churn, tuner flips, warmth.

// storeWith is a store cracking under strat.
func storeWith(t *testing.T, strat string, seed int64) *crackdb.Store {
	t.Helper()
	s := crackdb.New()
	if err := s.SetCrackStrategy(strat, seed); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreSetCrackStrategy: a store runs every column it cracks under
// the strategy it is set to and answers the model's counts and rows
// under each; an unknown name is refused up front. So is each retired
// stochastic strategy (ddc, mdd1r), with an error naming it and the
// accepted strategies, and the store set to ddr before keeps cracking
// under ddr.
func TestStoreSetCrackStrategy(t *testing.T) {
	for _, name := range append(strategy.Names(), "ddc", "mdd1r") {
		t.Run(name, func(t *testing.T) {
			runs := name
			if !slices.Contains(strategy.Names(), name) {
				runs = "ddr"
			}
			s := storeWith(t, runs, 42)
			if runs != name {
				err := s.SetCrackStrategy(name, 42)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) ||
					!strings.Contains(err.Error(), strings.Join(strategy.Names(), ", ")) {
					t.Fatalf("SetCrackStrategy(%q) = %v", name, err)
				}
			}
			oracle.Run(t, oracle.New(oracle.Config{Seed: 8, Ops: 40, Load: 5000, Domain: 5000, Selectivity: 0.1,
				Mix: oracle.Mix{oracle.Count: 2, oracle.Fetch: 1}}), nil, oracle.Single(s))
			if st, _ := s.Stats("t", "k"); st.Strategy != runs {
				t.Fatalf("the key column runs %q", st.Strategy)
			}
		})
	}
	if err := crackdb.New().SetCrackStrategy("bogus", 1); err == nil {
		t.Fatal("SetCrackStrategy(bogus) accepted")
	}
}

// TestSelectMatchesNaiveScan: Select over a stream of ranges, on the key
// and on other columns, finds the tuples a scan of the model finds.
func TestSelectMatchesNaiveScan(t *testing.T) {
	oracle.Run(t, oracle.New(oracle.Config{Seed: 2, Ops: 30, Load: 3000, Domain: 1000, Selectivity: 0.15,
		Mix: oracle.Mix{oracle.Fetch: 1}}), nil, oracle.Single(crackdb.New()))
}

// TestSelectWhereConjunction: conjunctions of zero to three conditions
// over any columns select the model's rows.
func TestSelectWhereConjunction(t *testing.T) {
	oracle.Run(t, oracle.New(oracle.Config{Seed: 3, Ops: 30, Load: 2000, Domain: 1000, Mix: oracle.Mix{oracle.Select: 1}}),
		nil, oracle.Single(crackdb.New()))
}

// TestFetchOracle: Select + Rows — the only path that reaches payload
// vectors — answers the model under every strategy × key pattern, with
// payloads on (a budget of two vectors over three payload columns, so
// they keep being evicted) and off, through inserts and deletes landing
// in the ranges held results re-project.
func TestFetchOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		for _, pat := range workload.Patterns() {
			for _, sideways := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/sideways=%v", strat, pat, sideways), func(t *testing.T) {
					t.Parallel()
					s := storeWith(t, strat, 42)
					s.SetSidewaysBudget(map[bool]int{true: 2}[sideways])
					oracle.Run(t, oracle.New(oracle.Config{Seed: int64(len(strat) + len(pat)), Ops: 60, Load: 2500,
						Domain: 10_000, Pattern: pat, Selectivity: 0.08, MaxBatch: 120,
						Mix: oracle.Mix{oracle.Fetch: 4, oracle.Refetch: 3, oracle.Insert: 1, oracle.Delete: 1}}),
						nil, oracle.Single(s))
					st := s.SidewaysStats()
					if sideways && (st.Projections == 0 || st.Evictions == 0) || !sideways && st.Projections != 0 {
						t.Fatalf("sideways=%v, yet %+v", sideways, st)
					}
				})
			}
		}
	}
}

// TestSelectBatchOracle: count batches mixing hits on converged cuts
// with misses that crack answer the model and match a twin counting the
// same ranges one by one — count for count and, after every batch, in
// every counter, piece count and strategy of the table's cracker
// columns — with inserts pending between batches, and with the tuner
// flipping strategies on both stores. The
// sideways cells also fetch rows through payload vectors, which every
// crack of a batch must carry along. Seed 4524's stream sends inverted
// ranges, empty batches and an unknown column on every pattern, and a
// range twice in one batch on random, zoomin and periodic keys
// (sequential and reverse keys never repeat one), with and without the
// fetches.
func TestSelectBatchOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		for _, sideways := range []bool{false, true} {
			for _, pat := range workload.Patterns() {
				t.Run(fmt.Sprintf("%s/%s/sideways=%v", strat, pat, sideways), func(t *testing.T) {
					mk := func() *oracle.Backend {
						s := storeWith(t, strat, 99)
						if !sideways {
							s.SetSidewaysBudget(0)
						}
						return oracle.Single(s)
					}
					mix := oracle.Mix{oracle.CountBatch: 6, oracle.Insert: 1}
					if sideways {
						mix[oracle.Fetch] = 1
					}
					batched := mk()
					oracle.Run(t, oracle.New(oracle.Config{Seed: 4524, Ops: 30, Load: 2000, Domain: 2000, Pattern: pat, Bad: 5,
						Selectivity: 0.02, MaxBatch: 25, Mix: mix}),
						nil, oracle.Ordered{Batched: batched, Twin: mk()}, mk())
					if st := batched.Store.SidewaysStats(); sideways && st.Builds == 0 || !sideways && st.Projections != 0 {
						t.Fatalf("sideways=%v, yet %+v", sideways, st)
					}
				})
			}
		}
	}
	// Under the tuner a batch still matches its twin: each store's tuner
	// sees the same ranges in the same order, so a flip lands between the
	// same two ranges in the batch as in the twin's sequence.
	for _, strat := range strategy.Names() {
		for _, pat := range workload.Patterns() {
			t.Run(fmt.Sprintf("autotune/%s/%s", strat, pat), func(t *testing.T) {
				mk := func() *oracle.Backend {
					s := storeWith(t, strat, 99)
					s.EnableAutotune(tuner.Config{Window: 16, Confirm: 1, Cooldown: 32})
					return oracle.Single(s)
				}
				oracle.Run(t, oracle.New(oracle.Config{Seed: 4524, Ops: 30, Load: 2000, Domain: 2000, Pattern: pat, Bad: 5,
					Selectivity: 0.02, MaxBatch: 25, Mix: oracle.Mix{oracle.CountBatch: 6, oracle.Insert: 1}}),
					nil, oracle.Ordered{Batched: mk(), Twin: mk()}, mk())
			})
		}
	}
}

// TestAutotuneOracle: a tuned store answers the model under every
// default strategy × key pattern while the tuner flips on its own and an
// operator forces and releases strategies mid-stream. A flip changes
// future pivots, never a cut, so nothing is tolerated.
func TestAutotuneOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		for _, pat := range workload.Patterns() {
			t.Run(strat+"/"+string(pat), func(t *testing.T) {
				s := storeWith(t, strat, 42)
				s.EnableAutotune(tuner.Config{Window: 16, Confirm: 1, Cooldown: 32, Monotone: 0.85})
				oracle.Run(t, oracle.New(oracle.Config{Seed: 5, Ops: 120, Load: 2000, Domain: 2000, Pattern: pat,
					MaxBatch: 500, Mix: oracle.Mix{oracle.Count: 8, oracle.Fetch: 1, oracle.Insert: 1, oracle.Flip: 1}}),
					nil, oracle.Single(s))
				if err := s.ReleaseStrategy("t", "k"); err != nil {
					t.Fatal(err)
				}
				var seen bool
				for _, d := range s.TuneDecisions() {
					if d.Table == "t" && d.Column == "k" {
						seen = true
						if d.Flips == 0 || d.Forced {
							t.Fatalf("after forced flips and a release: %+v", d)
						}
					}
				}
				if !seen {
					t.Fatal("no tuner decision for t.k")
				}
			})
		}
	}
}

// TestWarmReopenOracle: a store that saves its image and reopens it
// mid-stream (cracksql's path) answers the model under every strategy,
// and cracks in lockstep with a live twin that never reboots: a key range
// loaded before a reboot and cracked after it lands where the twin's does,
// so the strategy's random stream resumed rather than reseeded — and a
// column first cracked after a reboot draws the seed its name gives it,
// as the twin's did. The reopen is warm: the key column comes back with
// every piece, and the last range it answered is answered again without
// a crack.
func TestWarmReopenOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		t.Run(strat, func(t *testing.T) {
			p, live := oracle.Single(storeWith(t, strat, 99)), oracle.Single(storeWith(t, strat, 99))
			p.Dir = t.TempDir()
			m := oracle.Run(t, oracle.New(oracle.Config{Seed: 99, Ops: 60, Load: 3000, Domain: 10_000, MaxBatch: 500,
				Mix: oracle.Mix{oracle.Count: 6, oracle.Fetch: 2, oracle.Insert: 1, oracle.Delete: 1, oracle.Reboot: 1}}),
				nil, p, live)
			fresh := make([][]int64, 20_000)
			for i := range fresh {
				fresh[i] = []int64{1_000_000 + int64(i*7919%20_000), 0, 0, 0}
			}
			count := func(lo, hi int64) oracle.Op {
				return oracle.Op{Kind: oracle.Count, Table: "t", Col: "k", Ranges: []crackdb.Range{{Low: lo, High: hi}}}
			}
			reboot := oracle.Op{Kind: oracle.Reboot}
			oracle.Run(t, oracle.Ops(oracle.Op{Kind: oracle.Insert, Table: "t", Rows: fresh}, reboot, count(1_005_000, 1_005_100)), m, p, live)
			rebooted, _ := p.Store.Select("t", "k", math.MinInt64, math.MaxInt64)
			if twin, _ := live.Store.Select("t", "k", math.MinInt64, math.MaxInt64); !slices.Equal(rebooted.Values(), twin.Values()) {
				t.Fatal("after a reboot the key column cracks a fresh range unlike its live twin")
			}
			oracle.Run(t, oracle.Ops(count(2000, 2500)), m, p)
			saved, _ := p.Store.Stats("t", "k")
			oracle.Run(t, oracle.Ops(reboot), m, p)
			opened, _ := p.Store.Stats("t", "k")
			oracle.Run(t, oracle.Ops(count(2000, 2500)), m, p)
			again, _ := p.Store.Stats("t", "k")
			if opened.Pieces != saved.Pieces || again.Cracks != 0 {
				t.Fatalf("reopened with %d pieces (saved %d), then cracked %d times", opened.Pieces, saved.Pieces, again.Cracks)
			}
		})
	}
}

// TestSaveOpenRoundTrip: a store saved with cracked columns opens with
// the rows it saved, again and again, answering the model throughout.
func TestSaveOpenRoundTrip(t *testing.T) {
	p := oracle.Single(crackdb.New())
	p.Dir = t.TempDir()
	oracle.Run(t, oracle.New(oracle.Config{Seed: 9, Ops: 20, Load: 250, Domain: 1000,
		Mix: oracle.Mix{oracle.Count: 2, oracle.Fetch: 1, oracle.Reboot: 1}}), nil, p)
}

// TestSaveOpenRoundTripAfterCracking: a store cracked on several columns
// under a stochastic strategy saves, and a cold open of the image drops
// every cracker (paper §5.2: cracker indexes are not kept between
// sessions) yet holds the same rows, answering the model from scratch.
func TestSaveOpenRoundTripAfterCracking(t *testing.T) {
	s, dir := storeWith(t, "ddr", 7), filepath.Join(t.TempDir(), "store.crk")
	m := oracle.Run(t, oracle.New(oracle.Config{Seed: 3, Ops: 30, Load: 4000, Domain: 4000, Selectivity: 0.1,
		Mix: oracle.Mix{oracle.Count: 1, oracle.Select: 1, oracle.Fetch: 1}}), nil, oracle.Single(s))
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := crackdb.OpenCold(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cracked, err := re.CrackedColumnStats("t"); err != nil || len(cracked) != 0 {
		t.Fatalf("the cold open carries crackers %v (%v)", cracked, err)
	}
	if n, _ := re.NumRows("t"); n != m.Count("t", "k", math.MinInt64, math.MaxInt64) {
		t.Fatalf("the cold open holds %d rows", n)
	}
	oracle.Run(t, oracle.New(oracle.Config{Seed: 4, Ops: 30, Domain: 4000, Selectivity: 0.1,
		Mix: oracle.Mix{oracle.Select: 1, oracle.Fetch: 1}}), m, oracle.Single(re))
}

// TestDeleteWarmRoundTrip: deleted tuples stay deleted through a warm and
// a cold open of the image.
func TestDeleteWarmRoundTrip(t *testing.T) {
	s, dir := crackdb.New(), filepath.Join(t.TempDir(), "store.crk")
	m := oracle.Run(t, oracle.New(oracle.Config{Seed: 6, Ops: 30, Load: 1500, Domain: 1000,
		Mix: oracle.Mix{oracle.Delete: 1, oracle.Fetch: 1}}), nil, oracle.Single(s))
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, cold := range []bool{false, true} {
		re, err := crackdb.Open(dir)
		if cold {
			re, err = crackdb.OpenCold(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := re.NumRows("t"); n != m.Count("t", "k", math.MinInt64, math.MaxInt64) {
			t.Fatalf("reopened with %d rows", n)
		}
		oracle.Run(t, oracle.New(oracle.Config{Seed: 7, Ops: 20, Domain: 1000, Mix: oracle.Mix{oracle.Count: 1, oracle.Select: 1}}),
			m, oracle.Single(re))
	}
}

// TestDeltaChainOracle: a durable router that checkpoints delta elements
// and boots from its chain, and a store that saves and reopens full
// images, answer the model alike under every strategy: chain reboot ≡
// full image. Each sets its strategy again after every open, so a
// column first cracked after a reboot runs under it.
func TestDeltaChainOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		t.Run(strat, func(t *testing.T) {
			dir := t.TempDir()
			r, _, err := shard.OpenDurable(dir, shard.Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetCrackStrategy(strat, 99); err != nil {
				t.Fatal(err)
			}
			chain, full := oracle.Router(r), oracle.Single(storeWith(t, strat, 99))
			chain.Dir, full.Dir = dir, t.TempDir()
			defer func() { // a failed reboot leaves no router
				if chain.Router != nil {
					if err := chain.Router.CloseWAL(); err != nil {
						t.Error(err)
					}
				}
			}()
			m := oracle.Run(t, oracle.New(oracle.Config{Seed: 501, Ops: 40, Load: 2000, Domain: 10_000, MaxBatch: 400,
				Mix: oracle.Mix{oracle.Count: 4, oracle.Fetch: 2, oracle.Insert: 2, oracle.Delete: 1, oracle.Reboot: 1}}),
				nil, chain, full)
			// No image carries the strategy: a column first cracked after a
			// reboot runs under the one the backend sets again after the open.
			rows := make([][]int64, 500)
			for i := range rows {
				rows[i] = []int64{int64(i)}
			}
			oracle.Run(t, oracle.Ops(oracle.Op{Kind: oracle.Reboot}, oracle.Op{Kind: oracle.Create, Table: "fresh", Cols: []string{"a"}},
				oracle.Op{Kind: oracle.Insert, Table: "fresh", Rows: rows},
				oracle.Op{Kind: oracle.Count, Table: "fresh", Col: "a", Ranges: []crackdb.Range{{Low: 100, High: 200}}}), m, chain, full)
			stats, err := chain.Router.ShardStats("fresh", "a")
			if err != nil {
				t.Fatal(err)
			}
			single, err := full.Store.Stats("fresh", "a")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range append(stats, single) {
				if st.Strategy != strat {
					t.Fatalf("fresh.a cracked after a reboot under %q, want %q", st.Strategy, strat)
				}
			}
		})
	}
}
