package strategy_test

import (
	"math"
	"math/rand"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/strategy"
)

func randomVals(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(int64(n))
	}
	return vals
}

func TestNewRegistry(t *testing.T) {
	for _, name := range strategy.Names() {
		s, err := strategy.New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name == "standard" {
			if s != nil {
				t.Fatalf("New(standard) = %v, want nil (native kernels)", s)
			}
			continue
		}
		if s == nil || s.Name() != name {
			t.Fatalf("New(%q) = %v", name, s)
		}
	}
	if _, err := strategy.New("no-such", 1); err == nil {
		t.Fatal("New(no-such) succeeded, want error")
	}
	if s, err := strategy.New("", 1); err != nil || s != nil {
		t.Fatalf("New(\"\") = %v, %v, want nil, nil", s, err)
	}
}

// Equal seeds must reproduce identical cut sequences on identical data
// and queries — the RNG-discipline contract the figures rely on.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"ddr"} {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) []core.Cut {
				s, err := strategy.New(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				col := core.NewColumn("a", randomVals(20000, 7), core.WithStrategy(s))
				for q := 0; q < 40; q++ {
					lo := int64(q * 400)
					col.Select(lo, lo+500, true, false)
				}
				return col.Index().Cuts()
			}
			a, b, c := run(11), run(11), run(12)
			if len(a) == 0 {
				t.Fatal("no cuts registered at all")
			}
			if len(a) != len(b) {
				t.Fatalf("same seed, different cut count: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed, cut %d differs: %+v vs %+v", i, a[i], b[i])
				}
			}
			// Different seeds should (overwhelmingly) differ somewhere.
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatal("different seeds produced identical cut sequences")
			}
		})
	}
}

// A point query leaves its two complements — the tuples a <> predicate
// keeps — on either side of its window, consistent with each other
// under every strategy.
func TestNeComplementUnderStrategies(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := strategy.New(name, 6)
			if err != nil {
				t.Fatal(err)
			}
			base := randomVals(10000, 12) // values in [0, 10000): plenty of pieces > minPiece
			pivot := base[1234]
			wantBelow, wantAt, wantAbove := 0, 0, 0
			for _, v := range base {
				switch {
				case v < pivot:
					wantBelow++
				case v == pivot:
					wantAt++
				default:
					wantAbove++
				}
			}
			col := core.NewColumn("a", base, core.WithStrategy(s))
			mid := col.Select(pivot, pivot, true, true)
			all := col.Select(math.MinInt64, math.MaxInt64, true, true).Values()
			below, above := all[:mid.Lo], all[mid.Hi:]
			if got := mid.Len(); got != wantAt {
				t.Fatalf("point window %d tuples, want %d", got, wantAt)
			}
			if got := len(below); got != wantBelow {
				t.Fatalf("left complement %d tuples, want %d", got, wantBelow)
			}
			if got := len(above); got != wantAbove {
				t.Fatalf("right complement %d tuples, want %d", got, wantAbove)
			}
			for _, v := range below {
				if v >= pivot {
					t.Fatalf("left complement contains %d >= %d", v, pivot)
				}
			}
			for _, v := range above {
				if v <= pivot {
					t.Fatalf("right complement contains %d <= %d", v, pivot)
				}
			}
		})
	}
}

// Repeating a query cracks nothing under the stochastic strategy
// either: its query cuts register — also on a constant column, where a
// sampled pivot soon duplicates a cut and ends the consultation.
func TestConvergenceBounds(t *testing.T) {
	constant := make([]int64, 30000)
	for i := range constant {
		constant[i] = 1500
	}
	t.Run("ddr", func(t *testing.T) {
		for _, vals := range [][]int64{randomVals(30000, 4), constant} {
			s, err := strategy.New("ddr", 5)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewColumn("a", vals, core.WithStrategy(s))
			col.Select(1000, 2000, true, false)
			first := col.Stats()
			for i := 0; i < 5; i++ {
				col.Select(1000, 2000, true, false)
			}
			if got := col.Stats(); got.Cracks != first.Cracks || got.TuplesMoved != first.TuplesMoved {
				t.Fatalf("repeated query still cracks: %d -> %d cracks, %d -> %d tuples moved",
					first.Cracks, got.Cracks, first.TuplesMoved, got.TuplesMoved)
			}
			if err := col.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Strategy-advised aux cracks must be visible in the work counters.
func TestAuxCracksCounted(t *testing.T) {
	s, err := strategy.New("ddr", 1)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewColumn("a", randomVals(40000, 2), core.WithStrategy(s))
	col.Select(5000, 6000, true, false)
	st := col.Stats()
	if st.AuxCracks == 0 {
		t.Fatal("DDR on a virgin 40k column advised no aux cracks")
	}
	if st.AuxCracks > st.Cracks {
		t.Fatalf("AuxCracks %d exceeds total Cracks %d", st.AuxCracks, st.Cracks)
	}
	if col.StrategyName() != "ddr" {
		t.Fatalf("StrategyName = %q", col.StrategyName())
	}
}

// Answers must match a brute-force oracle for every strategy, including
// open-ended and empty ranges.
func TestAnswersMatchOracle(t *testing.T) {
	base := randomVals(8000, 13)
	oracle := func(lo, hi int64, loIncl, hiIncl bool) int {
		n := 0
		for _, v := range base {
			okLo := v > lo || (loIncl && v == lo)
			okHi := v < hi || (hiIncl && v == hi)
			if okLo && okHi {
				n++
			}
		}
		return n
	}
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := strategy.New(name, 17)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewColumn("a", base, core.WithStrategy(s))
			rng := rand.New(rand.NewSource(19))
			for q := 0; q < 60; q++ {
				lo := rng.Int63n(8000) - 100
				hi := lo + rng.Int63n(2000) - 50
				loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
				got := col.Select(lo, hi, loIncl, hiIncl).Len()
				if want := oracle(lo, hi, loIncl, hiIncl); got != want {
					t.Fatalf("%s: Select(%d,%d,%v,%v) = %d tuples, oracle %d",
						name, lo, hi, loIncl, hiIncl, got, want)
				}
				if err := col.Verify(); err != nil {
					t.Fatalf("%s after query %d: %v", name, q, err)
				}
			}
		})
	}
}
