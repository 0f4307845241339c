package crackdb

// The autotune acceptance benchmarks. Their thresholds are asserted by
// TestAutotuneSequentialBudget and TestAutotuneRandomBudget, which run
// the same stores through the same streams:
//
//   - on a sequential walk over N=1M with store default standard, the
//     tuner must converge to ddr and the steady-state (second half)
//     per-query latency must land within 2x of an always-ddr store;
//   - on a random stream the tuner must stay on standard with zero
//     flips after warmup.

import (
	"math/rand"
	"testing"
	"time"

	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

const (
	autotuneBenchN = 1_000_000
	autotuneBenchQ = 2048
)

// autotuneBenchRun drives one store through the pattern and returns the
// steady-state (second-half) per-query nanoseconds plus the tuner
// posture. ddr=true runs a static always-ddr store instead of the
// tuner.
func autotuneBenchRun(b testing.TB, rows [][]int64, pattern workload.Pattern, ddr bool) (float64, []tuner.Decision) {
	b.Helper()
	s := New()
	if ddr {
		if err := s.SetCrackStrategy("ddr", 42); err != nil {
			b.Fatal(err)
		}
	} else {
		s.EnableAutotune(tuner.DefaultConfig())
	}
	if err := s.CreateTable("bench", "a"); err != nil {
		b.Fatal(err)
	}
	if err := s.InsertRows("bench", rows); err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(pattern, workload.Config{
		Domain: autotuneBenchN, Count: autotuneBenchQ, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	steadyFrom := autotuneBenchQ / 2
	var steady time.Duration
	for i, q := range gen.Queries() {
		t0 := time.Now()
		if _, err := s.Count("bench", "a", q.Lo, q.Hi-1); err != nil {
			b.Fatal(err)
		}
		if i >= steadyFrom {
			steady += time.Since(t0)
		}
	}
	return float64(steady.Nanoseconds()) / float64(autotuneBenchQ-steadyFrom), s.TuneDecisions()
}

func autotuneBenchRows() [][]int64 {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]int64, autotuneBenchN)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(autotuneBenchN)}
	}
	return rows
}

func BenchmarkAutotuneSequential(b *testing.B) {
	rows := autotuneBenchRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ddrNs, _ := autotuneBenchRun(b, rows, workload.Sequential, true)
		autoNs, _ := autotuneBenchRun(b, rows, workload.Sequential, false)
		b.ReportMetric(autoNs, "ns/q-autotune")
		b.ReportMetric(ddrNs, "ns/q-ddr")
		b.ReportMetric(autoNs/ddrNs, "x-vs-ddr")
	}
}

func BenchmarkAutotuneRandom(b *testing.B) {
	rows := autotuneBenchRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autoNs, dec := autotuneBenchRun(b, rows, workload.Random, false)
		b.ReportMetric(autoNs, "ns/q-autotune")
		if len(dec) == 1 {
			b.ReportMetric(float64(dec[0].Flips), "flips")
		}
	}
}
