package crackdb

// The stochastic-cracking robustness matrix: every crack strategy
// against every adversarial workload pattern, reported as per-query
// cost. The numbers must exhibit the Halim et al. (VLDB 2012) result:
//
//   - standard cracking on the Sequential walk pays a near-full
//     partition pass per query (>= 10x its Random-workload per-query
//     cost — cumulative cost quadratic in the query count);
//   - MDD1R stays near-constant per query on every pattern (Sequential
//     within 3x of Random), because its cracker index is built from
//     data-driven random cuts the workload cannot steer.

import (
	"math/rand"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/strategy"
	"crackdb/internal/workload"
)

func BenchmarkStochasticWorkloads(b *testing.B) {
	const (
		n = 1_000_000
		k = 4096
	)
	rng := rand.New(rand.NewSource(42))
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(n)
	}
	for _, sName := range strategy.Names() {
		for _, pattern := range workload.Patterns() {
			b.Run(sName+"/"+string(pattern), func(b *testing.B) {
				gen, err := workload.New(pattern, workload.Config{
					Domain: n, Count: k, Selectivity: 0.01, Seed: 43,
				})
				if err != nil {
					b.Fatal(err)
				}
				queries := gen.Queries()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					st, err := strategy.New(sName, 42)
					if err != nil {
						b.Fatal(err)
					}
					col := core.NewColumn("a", base, core.WithStrategy(st))
					b.StartTimer()
					for _, q := range queries {
						col.Select(q.Lo, q.Hi, true, false)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/query")
			})
		}
	}
}

// BenchmarkStochasticFirstQuery isolates the cost of the very first
// query per strategy — the price of the initial data-driven cuts
// (DDC/DDR descend to the granule on query one; MDD1R pays a single
// extra partition pass; standard pays exactly one crack-in-three).
func BenchmarkStochasticFirstQuery(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(7))
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(n)
	}
	for _, sName := range strategy.Names() {
		b.Run(sName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := strategy.New(sName, 42)
				if err != nil {
					b.Fatal(err)
				}
				col := core.NewColumn("a", base, core.WithStrategy(st))
				b.StartTimer()
				col.Select(n/2, n/2+n/100, true, false)
			}
		})
	}
}
