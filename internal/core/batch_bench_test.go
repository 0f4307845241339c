package core

import (
	"math/rand"
	"testing"
)

// benchSnapshot builds a cut snapshot with p cuts spread evenly over the
// domain — the shape of a converged column's index after ~p queries.
func benchSnapshot(p int) *cutSnapshot {
	cuts := make([]Cut, p)
	for i := range cuts {
		cuts[i] = Cut{Val: int64(i) * 64, Incl: i%2 == 0, Pos: i * 100}
	}
	return newCutSnapshot(1, cuts)
}

// TestCutSnapshotFindOracle pins the Eytzinger lower-bound search to a
// plain binary search over the sorted array, across sizes (including
// empty and the duplicate (val,false)/(val,true) pairs the cut order
// produces) and probes on, between, below and above every cut value.
func TestCutSnapshotFindOracle(t *testing.T) {
	refFind := func(s *cutSnapshot, val int64, incl bool) (int, int, bool) {
		lo, hi := 0, len(s.vals)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if s.vals[m] < val {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return s.at(lo, val, incl)
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{0, 1, 2, 3, 7, 8, 64, 100, 1023, 1024, 1025} {
		cuts := make([]Cut, 0, 2*p)
		v := int64(0)
		for i := 0; i < p; i++ {
			v += 1 + rng.Int63n(5)
			cuts = append(cuts, Cut{Val: v, Incl: false, Pos: 2 * i})
			if rng.Intn(2) == 0 { // same value, both inclusive flags
				cuts = append(cuts, Cut{Val: v, Incl: true, Pos: 2*i + 1})
			}
		}
		snap := newCutSnapshot(1, cuts)
		probe := func(val int64, incl bool) {
			gi, gp, gok := snap.find(val, incl)
			wi, wp, wok := refFind(snap, val, incl)
			if gi != wi || gp != wp || gok != wok {
				t.Fatalf("p=%d find(%d,%v) = (%d,%d,%v), want (%d,%d,%v)",
					p, val, incl, gi, gp, gok, wi, wp, wok)
			}
		}
		probe(-1, true)
		probe(v+10, false)
		for _, c := range cuts {
			for _, incl := range []bool{false, true} {
				probe(c.Val, incl)
				probe(c.Val-1, incl)
				probe(c.Val+1, incl)
			}
		}
	}
}

// BenchmarkCutSnapshotFind measures the lower-bound search that resolves
// each batch predicate's bounds on the converged read path — the
// per-query kernel of SelectBatchRun's vectorized branch.
func BenchmarkCutSnapshotFind(b *testing.B) {
	for _, p := range []int{64, 1024, 16384, 262144} {
		b.Run(sizeName(p), func(b *testing.B) {
			snap := benchSnapshot(p)
			rng := rand.New(rand.NewSource(1))
			probes := make([]int64, 4096)
			for i := range probes {
				probes[i] = rng.Int63n(int64(p) * 64)
			}
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				_, pos, _ := snap.find(probes[i&4095], true)
				sink += pos
			}
			_ = sink
		})
	}
}

func sizeName(p int) string {
	switch {
	case p >= 1<<20:
		return "p=" + itoa(p>>20) + "M"
	case p >= 1<<10:
		return "p=" + itoa(p>>10) + "k"
	default:
		return "p=" + itoa(p)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

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
