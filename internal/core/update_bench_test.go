package core

import (
	"math/rand"
	"testing"
)

// BenchmarkAblationUpdateStrategy compares the two outcomes of the §7
// update fold under a trickle workload (insert one, query one) on a
// well-cracked column: rebuild drops the index, ripple keeps it. The
// by-cost default must track the ripple line.
func BenchmarkAblationUpdateStrategy(b *testing.B) {
	const n = 100_000
	base := make([]int64, n)
	rng := rand.New(rand.NewSource(15))
	for i := range base {
		base[i] = rng.Int63n(n)
	}
	for _, fold := range []foldKind{foldRebuild, foldRipple, foldByCost} {
		name := fold.String()
		if fold == foldByCost {
			name = "by-cost"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				col := NewColumn("a", base, WithFold(fold))
				qrng := rand.New(rand.NewSource(21))
				for q := 0; q < 32; q++ { // pre-crack
					lo := qrng.Int63n(n - n/50)
					col.Select(lo, lo+n/50, true, false)
				}
				b.StartTimer()
				for step := 0; step < 64; step++ {
					col.Insert(qrng.Int63n(n))
					lo := qrng.Int63n(n - n/50)
					col.Select(lo, lo+n/50, true, false)
				}
			}
		})
	}
}
