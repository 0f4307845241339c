package crackdb_test

import (
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/workload"
)

// BenchmarkRecovery measures the restart economics the durability
// subsystem exists for (ISSUE 4 acceptance): a converged store is
// saved, and the timed operation is the first query after Open. Three
// metrics accompany ns/op:
//
//	converged_ns   median per-query latency of the converged store
//	cold_first_ns  first-query latency after OpenCold of the same image
//	               (§5.2 behavior: crack state ignored)
//	warm_ratio     ns/op ÷ converged_ns — the acceptance bound is < 2
//
// Cold reopen pays the full first-touch partition scan; warm reopen pays
// one small-piece crack, the same order as the converged steady state.
func BenchmarkRecovery(b *testing.B) {
	n := 1_000_000
	converge := 512
	if testing.Short() {
		n, converge = 100_000, 256
	}
	for _, strat := range []string{"standard", "mdd1r"} {
		b.Run("strategy="+strat, func(b *testing.B) {
			dir := b.TempDir()
			store := crackdb.New()
			if strat != "standard" {
				if err := store.SetCrackStrategy(strat, 42); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.LoadTapestry("r", n, 1, 42); err != nil {
				b.Fatal(err)
			}
			queries := genQueries(b, n, converge+b.N+1, 43)
			lat := make([]time.Duration, converge)
			for i := 0; i < converge; i++ {
				t0 := time.Now()
				if _, err := store.Count("r", "c0", queries[i].Lo+1, queries[i].Hi); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
			}
			// Converged latency is the mean over the trajectory's second
			// half — the same statistic the warm side reports (ns/op is a
			// mean over b.N first queries), so the ratio compares like
			// with like on a heavy-tailed per-query distribution.
			var sum time.Duration
			for _, d := range lat[converge/2:] {
				sum += d
			}
			convergedNs := float64(sum.Nanoseconds()) / float64(converge-converge/2)
			if err := store.Save(dir); err != nil {
				b.Fatal(err)
			}

			// The cold baseline: reopen the same image without crack state
			// and pay the first-touch scan again.
			cold, err := crackdb.OpenCold(dir)
			if err != nil {
				b.Fatal(err)
			}
			q := queries[converge]
			t0 := time.Now()
			if _, err := cold.Count("r", "c0", q.Lo+1, q.Hi); err != nil {
				b.Fatal(err)
			}
			coldFirstNs := float64(time.Since(t0).Nanoseconds())

			// Each iteration is one full restart cycle: reopen warm
			// (untimed), then time the first post-restart query. b.N > 1
			// averages the first-query latency over independent reopens,
			// each drawing a fresh random query.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				warm, err := crackdb.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				q := queries[converge+1+i]
				b.StartTimer()
				if _, err := warm.Count("r", "c0", q.Lo+1, q.Hi); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(convergedNs, "converged_ns")
			b.ReportMetric(coldFirstNs, "cold_first_ns")
			if convergedNs > 0 {
				b.ReportMetric(warmNs/convergedNs, "warm_ratio")
			}
		})
	}
}

func genQueries(b *testing.B, n, count int, seed int64) []workload.Query {
	gen, err := workload.New(workload.Random, workload.Config{
		Domain: int64(n), Count: count, Selectivity: 0.01, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return gen.Queries()
}
