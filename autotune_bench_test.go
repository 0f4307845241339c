package crackdb

// The autotune acceptance benchmarks. CI runs these with -benchtime=1x;
// the thresholds are asserted here, so a regression fails the bench
// step:
//
//   - on a sequential walk over N=1M with store default standard, the
//     tuner must converge to mdd1r and the steady-state (second half)
//     per-query latency must land within 2x of an always-mdd1r store;
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
// posture. mdd1r=true runs a static always-mdd1r store instead of the
// tuner.
func autotuneBenchRun(b *testing.B, rows [][]int64, pattern workload.Pattern, mdd1r bool) (float64, []tuner.Decision) {
	b.Helper()
	s := New()
	if mdd1r {
		if err := s.SetCrackStrategy("mdd1r", 42); err != nil {
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
		mdd1rNs, _ := autotuneBenchRun(b, rows, workload.Sequential, true)
		autoNs, dec := autotuneBenchRun(b, rows, workload.Sequential, false)
		if len(dec) != 1 || dec[0].Strategy != "mdd1r" || dec[0].Flips == 0 {
			b.Fatalf("autotune did not converge to mdd1r on the sequential walk: %+v", dec)
		}
		ratio := autoNs / mdd1rNs
		b.ReportMetric(autoNs, "ns/q-autotune")
		b.ReportMetric(mdd1rNs, "ns/q-mdd1r")
		b.ReportMetric(ratio, "x-vs-mdd1r")
		if ratio > 2.0 {
			b.Fatalf("autotune steady-state %.0f ns/q is %.2fx always-mdd1r (%.0f ns/q), want <= 2x",
				autoNs, ratio, mdd1rNs)
		}
	}
}

func BenchmarkAutotuneRandom(b *testing.B) {
	rows := autotuneBenchRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autoNs, dec := autotuneBenchRun(b, rows, workload.Random, false)
		if len(dec) != 1 || dec[0].Strategy != "standard" || dec[0].Flips != 0 {
			b.Fatalf("autotune flipped on a random stream: %+v", dec)
		}
		b.ReportMetric(autoNs, "ns/q-autotune")
		b.ReportMetric(float64(dec[0].Flips), "flips")
	}
}
