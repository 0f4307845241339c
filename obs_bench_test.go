package crackdb

// Observability overhead benchmarks. The obs layer's contract is that
// instrumenting the converged read path — the ~100ns regime everything
// else in this repo fought for — costs at most 5% (ISSUE 7 acceptance).
// Disabled, the cost is one atomic pointer load and a branch; enabled,
// the latency timing is sampled 1-in-256 through the column's existing
// queries counter, so 255 of 256 lookups still pay only loads and
// atomic increments that were already there.

import (
	"math/rand"
	"testing"
	"time"

	"crackdb/internal/core"
	"crackdb/internal/obs"
)

// convergedColumn builds a column cracked on a fixed grid of boundaries,
// so every query over a grid-aligned range is answered by two index
// lookups and no data movement.
func convergedColumn(n, gridCells int) *core.Column {
	base := make([]int64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range base {
		base[i] = rng.Int63n(int64(n))
	}
	col := core.NewColumn("a", base)
	step := int64(n / gridCells)
	for g := 0; g < gridCells; g++ {
		lo := int64(g) * step
		col.Select(lo, lo+step, true, false) // registers cuts at lo and lo+step
	}
	return col
}

// lookupNS measures the per-op cost of rounds×opsPerRound converged
// lookups and returns the minimum round time (min-of-rounds discards
// scheduler noise; both configurations are measured interleaved so
// neither systematically inherits a warmer cache).
func lookupNS(col *core.Column, grid, step int64, rounds, opsPerRound int) float64 {
	rng := rand.New(rand.NewSource(99))
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < opsPerRound; i++ {
			lo := rng.Int63n(grid-1) * step
			col.Select(lo, lo+step, true, false)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(opsPerRound)
}

// BenchmarkMetricsOverhead reports the converged-lookup cost with
// instrumentation off and on, plus the relative overhead (the
// overhead_pct metric). The overhead sub-benchmark fails if the
// production sampling configuration costs more than 5%.
func BenchmarkMetricsOverhead(b *testing.B) {
	const n, grid = 1_000_000, 512
	step := int64(n / grid)
	instr := func() *core.Instr {
		reg := obs.NewRegistry()
		return &core.Instr{
			ReadHold:   reg.Histogram("lat", "l", obs.L("path", "converged")),
			WriteHold:  reg.Histogram("lat", "l", obs.L("path", "crack")),
			Batch:      reg.Histogram("lat", "l", obs.L("path", "batch")),
			Trace:      obs.NewTraceBuf(1024),
			SampleMask: 255,
		}
	}

	b.Run("instr=off", func(b *testing.B) {
		col := convergedColumn(n, grid)
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rng.Int63n(grid-1) * step
			col.Select(lo, lo+step, true, false)
		}
	})
	b.Run("instr=on", func(b *testing.B) {
		col := convergedColumn(n, grid)
		col.SetInstr(instr())
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rng.Int63n(grid-1) * step
			col.Select(lo, lo+step, true, false)
		}
	})
	b.Run("overhead", func(b *testing.B) {
		plain := convergedColumn(n, grid)
		wired := convergedColumn(n, grid)
		wired.SetInstr(instr())
		const rounds, ops = 12, 200_000
		// Interleave: warm both, then alternate measurement rounds.
		lookupNS(plain, grid, step, 1, ops)
		lookupNS(wired, grid, step, 1, ops)
		b.ResetTimer()
		offNS := lookupNS(plain, grid, step, rounds, ops)
		onNS := lookupNS(wired, grid, step, rounds, ops)
		pct := (onNS - offNS) / offNS * 100
		b.ReportMetric(pct, "overhead_pct")
		b.ReportMetric(offNS, "off_ns/op")
		b.ReportMetric(onNS, "on_ns/op")
		if pct > 5.0 {
			b.Fatalf("instrumented converged lookup is %.2f%% slower (off %.1fns, on %.1fns); budget is 5%%", pct, offNS, onNS)
		}
	})
}
