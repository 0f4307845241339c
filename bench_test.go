// External test package: internal/figures reaches back into the public
// crackdb API (the shard figure runs on sharded stores), so an
// in-package test importing it would be an import cycle.
package crackdb_test

// The benchmark harness: one testing.B per figure of the paper's
// evaluation (there are no numbered tables; Figures 1-3 and 8-11 carry
// the entire evaluation, plus the §5.1 cost breakdown). Each benchmark
// regenerates the corresponding figure's workload at a benchmark-friendly
// scale; `crackbench -fig N` runs the same generators at paper scale and
// prints the series. EXPERIMENTS.md records paper-vs-measured shapes.
//
// Ablation benches at the bottom quantify the design choices DESIGN.md
// calls out: AVL index vs linear boundary search, crack-in-three vs two
// crack-in-twos, and piece fusion budgets.

import (
	"io"
	"math/rand"
	"sort"
	"testing"

	"crackdb"
	"crackdb/internal/algebra"
	"crackdb/internal/catalog"
	"crackdb/internal/core"
	"crackdb/internal/costsim"
	"crackdb/internal/engine"
	"crackdb/internal/expr"
	"crackdb/internal/figures"
	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

const benchN = 100_000 // rows for figure benches (paper: 1M; crackbench uses 1M)

func benchTable(b *testing.B) *relation.Table {
	b.Helper()
	tap := relation.Tapestry(benchN, 2, 42)
	tbl, err := relation.FromColumns("R",
		relation.Column{Name: "k", Data: tap.MustColumn("c0")},
		relation.Column{Name: "a", Data: tap.MustColumn("c1")},
	)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkFig1 measures the three delivery modes of Figure 1 at σ = 5%
// for each engine personality.
func BenchmarkFig1(b *testing.B) {
	tbl := benchTable(b)
	lo, hi := int64(1), int64(0.05*benchN)
	pred := expr.Term{{Col: "a", Op: expr.Ge, Val: lo}, {Col: "a", Op: expr.Le, Val: hi}}

	for _, prof := range algebra.Profiles() {
		b.Run("count/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if prof.Vectorized {
					algebra.VecCount(tbl.MustColumn("a"), lo, hi, true, true)
					continue
				}
				f, err := algebra.NewFilter(algebra.NewTableScan(tbl), pred)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := algebra.Count(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("print/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if prof.Vectorized {
					pos := algebra.VecSelect(tbl.MustColumn("a"), lo, hi, true, true)
					if _, err := algebra.VecPrint(tbl, pos, io.Discard); err != nil {
						b.Fatal(err)
					}
					continue
				}
				f, err := algebra.NewFilter(algebra.NewTableScan(tbl), pred)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := algebra.Print(f, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("materialize/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if prof.Vectorized {
					pos := algebra.VecSelect(tbl.MustColumn("a"), lo, hi, true, true)
					if _, err := algebra.VecMaterialize(tbl, pos, "newR", catalog.New()); err != nil {
						b.Fatal(err)
					}
					continue
				}
				f, err := algebra.NewFilter(algebra.NewTableScan(tbl), pred)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := algebra.Materialize(f, "newR", prof, catalog.New()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2 runs the granule-vector cracking simulation of Figure 2
// (20 uniform random steps at σ = 5% over 1M granules).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps := costsim.Series(1_000_000, 20, 0.05, int64(i))
		costsim.FractionalOverhead(1_000_000, steps)
	}
}

// BenchmarkFig3 runs the cumulative-cost side of the same simulation.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps := costsim.Series(1_000_000, 20, 0.05, int64(i))
		costsim.CumulativeRelativeCost(1_000_000, steps)
	}
}

// BenchmarkFig8 evaluates the three selectivity distribution functions.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []mqs.Dist{mqs.Linear, mqs.Exponential, mqs.Logarithmic} {
			for step := 0; step <= 20; step++ {
				mqs.Rho(d, step, 20, 0.2)
			}
		}
	}
}

// BenchmarkFig9 measures one k-way chain join per personality at the
// largest k each can sustain at bench scale.
func BenchmarkFig9(b *testing.B) {
	tap := relation.Tapestry(4096, 2, 42)
	tbl, err := relation.FromColumns("R",
		relation.Column{Name: "k", Data: tap.MustColumn("c0")},
		relation.Column{Name: "a", Data: tap.MustColumn("c1")},
	)
	if err != nil {
		b.Fatal(err)
	}
	chain := func(k int) []*relation.Table {
		ts := make([]*relation.Table, k)
		for i := range ts {
			ts[i] = tbl
		}
		return ts
	}

	b.Run("colstore/k=128", func(b *testing.B) {
		tables := chain(128)
		for i := 0; i < b.N; i++ {
			if _, err := algebra.VecChainJoin(tables, "a", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowstore-txn-hash/k=8", func(b *testing.B) {
		tables := chain(8)
		for i := 0; i < b.N; i++ {
			it, _, err := algebra.PlanChain(algebra.ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, algebra.RowStoreTxn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := algebra.Count(it); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowstore-lite-nl/k=4", func(b *testing.B) {
		tables := chain(4)
		for i := 0; i < b.N; i++ {
			it, _, err := algebra.PlanChain(algebra.ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, algebra.RowStoreLite)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := algebra.Count(it); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10 measures a full homerun sequence with and without
// cracking (the Figure 10 comparison) at σ = 5%.
func BenchmarkFig10(b *testing.B) {
	tbl := relation.Tapestry(benchN, 2, 42)
	m := mqs.MQS{Alpha: 2, N: benchN, K: 64, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Homerun(m, "c0", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []engine.Strategy{engine.Crack, engine.NoCrack} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess, err := engine.NewSession(tbl, "c0", strat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.RunSequence(qs, engine.ModeCount, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 measures a strolling-convergence sequence under the
// three strategies of Figure 11.
func BenchmarkFig11(b *testing.B) {
	tbl := relation.Tapestry(benchN, 2, 42)
	m := mqs.MQS{Alpha: 2, N: benchN, K: 64, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Strolling(m, "c0", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []engine.Strategy{engine.NoCrack, engine.SortFirst, engine.Crack} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess, err := engine.NewSession(tbl, "c0", strat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.RunSequence(qs, engine.ModeCount, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLLevelCracking measures the §5.1 comparison: Ξ at the SQL
// level (two scans + two transactional materializations) versus the
// kernel-level partition pass.
func BenchmarkSQLLevelCracking(b *testing.B) {
	tbl := benchTable(b)
	cut := int64(0.05 * benchN)

	b.Run("sql-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cat := catalog.New()
			for _, t := range []expr.Term{
				{{Col: "a", Op: expr.Le, Val: cut}},
				{{Col: "a", Op: expr.Gt, Val: cut}},
			} {
				f, err := algebra.NewFilter(algebra.NewTableScan(tbl), t)
				if err != nil {
					b.Fatal(err)
				}
				name := "frag001"
				if t[0].Op == expr.Gt {
					name = "frag002"
				}
				if _, err := algebra.Materialize(f, name, algebra.RowStoreTxn, cat); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("kernel-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			col := core.FromBAT(tbl.MustColumn("a"))
			b.StartTimer()
			col.SelectPred(expr.Pred{Col: "a", Op: expr.Le, Val: cut})
		}
	})
}

// BenchmarkCrackSelect measures steady-state cracked range queries on the
// public API (the library's headline operation).
func BenchmarkCrackSelect(b *testing.B) {
	s := crackdb.New()
	if err := s.LoadTapestry("tap", benchN, 1, 42); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(benchN - benchN/20)
		if _, err := s.Count("tap", "c0", lo, lo+benchN/20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexStructure compares the AVL cracker index against
// a linear sorted-slice scan for cut lookup at realistic piece counts.
func BenchmarkAblationIndexStructure(b *testing.B) {
	const pieces = 4096
	ix := &core.Index{}
	vals := make([]int64, pieces)
	for i := range vals {
		vals[i] = int64(i * 17)
		ix.Insert(vals[i], false, i)
	}
	cuts := ix.Cuts()
	rng := rand.New(rand.NewSource(3))

	b.Run("avl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Floor(rng.Int63n(pieces*17), false)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := rng.Int63n(pieces * 17)
			for j := len(cuts) - 1; j >= 0; j-- {
				if cuts[j].Val <= v {
					break
				}
			}
		}
	})
	b.Run("binary-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := rng.Int63n(pieces * 17)
			sort.Search(len(cuts), func(j int) bool { return cuts[j].Val > v })
		}
	})
}

// BenchmarkAblationCrackInThree compares answering a virgin double-sided
// range with one crack-in-three pass versus two crack-in-two passes.
func BenchmarkAblationCrackInThree(b *testing.B) {
	base := make([]int64, benchN)
	rng := rand.New(rand.NewSource(5))
	for i := range base {
		base[i] = rng.Int63n(benchN)
	}
	lo, hi := int64(benchN/4), int64(benchN/2)

	b.Run("crack-in-three", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			col := core.NewColumn("a", base)
			b.StartTimer()
			col.Select(lo, hi, true, false) // both cuts new, same piece → one pass
		}
	})
	b.Run("two-crack-in-twos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			col := core.NewColumn("a", base)
			b.StartTimer()
			col.Select(lo, int64(benchN)+1, true, false) // one-sided: cut at lo
			col.Select(lo, hi, true, false)              // cut at hi in the suffix piece
		}
	})
}

// BenchmarkAblationFusion measures long random workloads under different
// piece budgets: unbounded, generous, and tight.
func BenchmarkAblationFusion(b *testing.B) {
	base := make([]int64, benchN)
	rng := rand.New(rand.NewSource(9))
	for i := range base {
		base[i] = rng.Int63n(benchN)
	}
	run := func(b *testing.B, maxPieces int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var col *core.Column
			if maxPieces > 0 {
				col = core.NewColumn("a", base, core.WithMaxPieces(maxPieces))
			} else {
				col = core.NewColumn("a", base)
			}
			qrng := rand.New(rand.NewSource(11))
			b.StartTimer()
			for q := 0; q < 256; q++ {
				lo := qrng.Int63n(benchN - benchN/50)
				col.Select(lo, lo+benchN/50, true, false)
			}
		}
	}
	b.Run("unbounded", func(b *testing.B) { run(b, 0) })
	b.Run("max-1024", func(b *testing.B) { run(b, 1024) })
	b.Run("max-32", func(b *testing.B) { run(b, 32) })
}

// BenchmarkTapestry measures the DBtapestry generator itself.
func BenchmarkTapestry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		relation.Tapestry(benchN, 2, int64(i))
	}
}

// BenchmarkFigureHarness runs the full reduced-scale figure generators,
// guarding against regressions in the harness itself.
func BenchmarkFigureHarness(b *testing.B) {
	b.Run("fig2+fig3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			figures.Fig2(figures.Fig2Config{N: 200_000, K: 20, Seed: int64(i)})
			figures.Fig3(figures.Fig2Config{N: 200_000, K: 20, Seed: int64(i)})
		}
	})
	b.Run("fig8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			figures.Fig8(figures.Fig8Config{})
		}
	})
	b.Run("fig10-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := figures.Fig10(figures.Fig10Config{
				N: 20_000, K: 16, Selectivities: []float64{0.05}, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHiking measures the hiking profile (§4): fixed-size windows
// sliding with growing overlap — the profile between homeruns and
// strolling — under crack and scan strategies.
func BenchmarkHiking(b *testing.B) {
	tbl := relation.Tapestry(benchN, 2, 42)
	m := mqs.MQS{Alpha: 2, N: benchN, K: 64, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Hiking(m, "c0", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []engine.Strategy{engine.Crack, engine.NoCrack} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess, err := engine.NewSession(tbl, "c0", strat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.RunSequence(qs, engine.ModeCount, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTermPlanner compares conjunctive-term evaluation with
// and without the index-statistics planner: SelectTerm cracks every
// advised column, SelectTermPlanned estimates first and cracks only the
// winner (paper §3.3).
func BenchmarkAblationTermPlanner(b *testing.B) {
	tap := relation.Tapestry(benchN, 3, 42)
	rng := rand.New(rand.NewSource(5))
	terms := make([]expr.Term, 256)
	for i := range terms {
		lo := rng.Int63n(benchN - benchN/100)
		wide := rng.Int63n(benchN / 2)
		terms[i] = expr.Term{
			{Col: "c0", Op: expr.Ge, Val: lo},
			{Col: "c0", Op: expr.Le, Val: lo + benchN/100}, // selective
			{Col: "c1", Op: expr.Ge, Val: wide},            // unselective
		}
	}
	b.Run("crack-all-advised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ct := core.NewCrackedTable(tap)
			b.StartTimer()
			for _, term := range terms {
				if _, err := ct.SelectTerm(term); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ct := core.NewCrackedTable(tap)
			b.StartTimer()
			for _, term := range terms {
				if _, _, err := ct.SelectTermPlanned(term); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
