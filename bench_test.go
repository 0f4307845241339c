// External test package: internal/figures reaches back into the public
// crackdb API (the shard figure runs on sharded stores), so an
// in-package test importing it would be an import cycle.
package crackdb_test

// The benchmark harness: BenchmarkFigureHarness times the generators of
// internal/figures at a benchmark-friendly scale — the same code
// `crackbench -fig N` runs at paper scale, so a figure has one body, not
// one here and one there. DESIGN.md's figure index maps each figure to
// its modules; Figures 2, 3 and 8 also have a kernel-only benchmark.
//
// Ablation benches at the bottom quantify the design choices DESIGN.md
// calls out: the leaf cracker index vs linear boundary search, and
// crack-in-three vs two crack-in-twos.

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/costsim"
	"crackdb/internal/figures"
	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

const benchN = 100_000 // rows for figure benches (paper: 1M; crackbench uses 1M)

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

// BenchmarkAblationIndexStructure compares the cracker index (sorted
// leaves under one key array) against a linear scan and a binary search
// of one sorted slice for cut lookup at realistic piece counts.
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

	b.Run("leaves", func(b *testing.B) {
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

// BenchmarkTapestry measures the DBtapestry generator itself.
func BenchmarkTapestry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		relation.Tapestry(benchN, 2, int64(i))
	}
}

// BenchmarkFigureHarness regenerates each figure at reduced scale by
// calling its generator.
func BenchmarkFigureHarness(b *testing.B) {
	run := func(name string, gen func(seed int64) error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := gen(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Figure 1 at σ = 5 %, one sub-benchmark per delivery mode.
	for _, mode := range []figures.Fig1Mode{figures.Fig1Count, figures.Fig1Print, figures.Fig1Materialize} {
		run("fig1/"+mode.String(), func(seed int64) error {
			_, err := figures.Fig1(mode, figures.Fig1Config{N: benchN, Selectivities: []float64{0.05}, Seed: seed})
			return err
		})
	}
	run("fig2+fig3", func(seed int64) error {
		figures.Fig2(figures.Fig2Config{N: 200_000, K: 20, Seed: seed})
		figures.Fig3(figures.Fig2Config{N: 200_000, K: 20, Seed: seed})
		return nil
	})
	run("fig8", func(int64) error {
		figures.Fig8(figures.Fig8Config{})
		return nil
	})
	run("fig9", func(seed int64) error {
		_, err := figures.Fig9(figures.Fig9Config{N: 1024, Ks: []int{2, 4, 8}, Budget: time.Minute, Seed: seed})
		return err
	})
	run("fig10", func(seed int64) error {
		_, err := figures.Fig10(figures.Fig10Config{N: benchN, K: 64, Selectivities: []float64{0.05}, Seed: seed})
		return err
	})
	run("fig11", func(seed int64) error {
		_, err := figures.Fig11(figures.Fig11Config{N: benchN, K: 64, Seed: seed})
		return err
	})
	run("hiking", func(seed int64) error {
		_, err := figures.FigHiking(figures.FigHikingConfig{N: benchN, K: 64, Seed: seed})
		return err
	})
	run("sql", func(seed int64) error {
		_, err := figures.SQLLevel(figures.SQLLevelConfig{N: benchN, Seed: seed})
		return err
	})
}
