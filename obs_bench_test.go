package crackdb

// Observability overhead benchmarks. The obs layer's contract is that
// instrumenting the converged read path — the ~100ns regime everything
// else in this repo fought for — costs at most 5%, which
// TestMetricsOverheadBudget holds.
// Disabled, the cost is one atomic pointer load and a branch; enabled,
// the latency timing is sampled 1-in-256 through the column's existing
// queries counter, so 255 of 256 lookups still pay only loads and
// atomic increments that were already there.

import (
	"math/rand"
	"testing"

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

// instrumentedOverhead measures what the production instrumentation —
// latency timing sampled 1-in-256, histograms and the trace ring — adds
// to a converged lookup, in percent. Twin 1M-row columns cracked on a
// 512-cell grid, one of them instrumented, answer alternating rounds of
// the same random grid lookups (the pair's order alternates too), and
// the overhead is the median over the pairs of the instrumented round's
// time relative to its uninstrumented neighbour's; offNS and onNS are
// each side's median round, per lookup. A burst of other load on the
// machine lands inside one pair, which the median discards: the minimum
// of twelve rounds of each side measured one side after the other,
// which this replaced, read from -12 % to +13 % over five runs on a
// shared 2-core box.
func instrumentedOverhead() (pct, offNS, onNS float64) {
	const n, grid, ops = 1_000_000, 512, 50_000
	step := int64(n / grid)
	reg := obs.NewRegistry()
	plain := convergedColumn(n, grid)
	wired := convergedColumn(n, grid)
	wired.SetInstr(&core.Instr{
		ReadHold:   reg.Histogram("lat", "l", obs.L("path", "converged")),
		WriteHold:  reg.Histogram("lat", "l", obs.L("path", "crack")),
		Batch:      reg.Histogram("lat", "l", obs.L("path", "batch")),
		Trace:      obs.NewTraceBuf(1024),
		SampleMask: 255,
	})
	rng := rand.New(rand.NewSource(99))
	round := func(col *core.Column) func() {
		return func() {
			for i := 0; i < ops; i++ {
				lo := rng.Int63n(grid-1) * step
				col.Select(lo, lo+step, true, false)
			}
		}
	}
	round(plain)() // warm both
	round(wired)()
	ratio, off, on := medianRatio(round(plain), round(wired))
	return (ratio - 1) * 100, float64(off.Nanoseconds()) / ops, float64(on.Nanoseconds()) / ops
}

// BenchmarkMetricsOverhead reports the converged-lookup cost with
// instrumentation off and on, plus the relative overhead (the
// overhead_pct metric). TestMetricsOverheadBudget holds the overhead to
// 5 %.
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
		for i := 0; i < b.N; i++ {
			pct, offNS, onNS := instrumentedOverhead()
			b.ReportMetric(pct, "overhead_pct")
			b.ReportMetric(offNS, "off_ns/op")
			b.ReportMetric(onNS, "on_ns/op")
		}
	})
}
