package strategy_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/relation"
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
			if s != (core.CrackStrategy{}) {
				t.Fatalf("New(standard) = %+v, want the zero value (native kernels)", s)
			}
			continue
		}
		if s.Name != name || s.MinPiece != 2048 || s.RNG != 1 {
			t.Fatalf("New(%q) = %+v", name, s)
		}
	}
	if _, err := strategy.New("no-such", 1); err == nil {
		t.Fatal("New(no-such) succeeded, want error")
	}
	if s, err := strategy.New("", 1); err != nil || s != (core.CrackStrategy{}) {
		t.Fatalf("New(\"\") = %+v, %v, want the zero value", s, err)
	}
}

// rngOf reads a column's RNG word the way an image stores it.
func rngOf(t *testing.T, c *core.Column) uint64 {
	t.Helper()
	st, _ := c.TakeState(true)
	if st.Strategy == nil {
		t.Fatal("a ddr column exported no strategy")
	}
	return st.Strategy.RNG
}

// walk runs queries q0..q1-1 of a fixed stream of 1 % ranges over
// [0, 20000) on each column.
func walk(q0, q1 int, cols ...*core.Column) {
	for q := q0; q < q1; q++ {
		lo := int64(q*397) % 19800
		for _, c := range cols {
			c.Select(lo, lo+200, true, false)
		}
	}
}

// TestPRNGDeterminism: equal seeds reproduce equal streams; the stream
// is not trivially constant, and another seed draws another one.
func TestPRNGDeterminism(t *testing.T) {
	col := func(seed int64) *core.Column {
		s, err := strategy.New("ddr", seed)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewColumn("a", randomVals(20000, 7), core.WithStrategy(s))
	}
	a, b, c := col(42), col(42), col(43)
	words := map[uint64]bool{}
	for q := 0; q < 20; q++ {
		walk(q, q+1, a, b, c)
		x, y := rngOf(t, a), rngOf(t, b)
		if x != y {
			t.Fatalf("query %d: RNG %#x != %#x with equal seeds", q, x, y)
		}
		words[x] = true
	}
	if len(words) < 2 {
		t.Fatal("the RNG word never moved")
	}
	if rngOf(t, a) == rngOf(t, c) || slices.Equal(a.Index().Cuts(), c.Index().Cuts()) {
		t.Fatal("seeds 42 and 43 drew the same stream")
	}
}

// TestRNGStateRoundTrip is the durability contract: a column exported
// mid-stream and rebuilt from its state must continue the exact pivot
// sequence the original draws next — not restart from the seed.
func TestRNGStateRoundTrip(t *testing.T) {
	vals := randomVals(20000, 9)
	s, err := strategy.New("ddr", 7)
	if err != nil {
		t.Fatal(err)
	}
	orig := core.NewColumn("a", vals, core.WithStrategy(s))
	walk(0, 15, orig) // part of the stream, as a live column would
	st, _ := orig.TakeState(true)
	restored, err := strategy.Restore(*st.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if restored != *st.Strategy || restored.RNG == 7 {
		t.Fatalf("restored %+v from %+v", restored, *st.Strategy)
	}
	base, err := relation.FromColumns("t", relation.Column{Name: "a", Data: bat.FromInts("a", vals)})
	if err != nil {
		t.Fatal(err)
	}
	ct := core.NewCrackedTable(base)
	twin, err := ct.ColumnFromState("a", st, core.WithStrategy(restored))
	if err != nil {
		t.Fatal(err)
	}
	// A twin that restarts from the seed must NOT match: that proves the
	// round trip carries the position, not just the seed.
	reseeded, err := ct.ColumnFromState("a", st, core.WithStrategy(s))
	if err != nil {
		t.Fatal(err)
	}
	walk(15, 60, orig, twin, reseeded)
	if !slices.Equal(twin.Index().Cuts(), orig.Index().Cuts()) || rngOf(t, twin) != rngOf(t, orig) {
		t.Fatal("the restored column drew another pivot sequence")
	}
	if slices.Equal(reseeded.Index().Cuts(), orig.Index().Cuts()) {
		t.Fatal("a column re-seeded after the restore drew the same pivots")
	}
}

// TestRestoreRejectsUnknown: an image naming an unknown strategy must
// fail restore loudly, naming it — retired strategies included, which
// older images may still carry.
func TestRestoreRejectsUnknown(t *testing.T) {
	for _, name := range []string{"quantum", "ddc", "mdd1r"} {
		_, err := strategy.Restore(core.CrackStrategy{Name: name, MinPiece: 2048, RNG: 7})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("restore of %q: %v, want an error naming it", name, err)
		}
	}
	if s, err := strategy.Restore(core.CrackStrategy{Name: "standard"}); err != nil || s != (core.CrackStrategy{}) {
		t.Fatalf("standard restore: %+v, %v (want the zero value)", s, err)
	}
}

// TestExportCarriesMinPiece: the cut-off granularity survives the trip,
// and an image without one restores at the default.
func TestExportCarriesMinPiece(t *testing.T) {
	c := core.NewColumn("a", randomVals(4000, 3), core.WithStrategy(core.CrackStrategy{Name: "ddr", MinPiece: 512, RNG: 3}))
	c.Select(100, 200, true, false)
	st, _ := c.TakeState(true)
	if st.Strategy == nil || st.Strategy.MinPiece != 512 {
		t.Fatalf("exported strategy %+v, want MinPiece 512", st.Strategy)
	}
	if r, err := strategy.Restore(*st.Strategy); err != nil || r.MinPiece != 512 {
		t.Fatalf("restored %+v, %v; want MinPiece 512", r, err)
	}
	if r, err := strategy.Restore(core.CrackStrategy{Name: "ddr", RNG: 3}); err != nil || r.MinPiece != 2048 {
		t.Fatalf("restored %+v, %v; want MinPiece 2048", r, err)
	}
}

// TestHandoff pins the swap rules: ddr→ddr resumes the outgoing RNG
// word; a ddr whose word is 0, and standard→ddr, seed from seed;
// →standard is the zero value; an unknown name errors, and a swap that
// keeps the old strategy on error (as the tuner's does) changes nothing.
func TestHandoff(t *testing.T) {
	ddr := func(rng uint64) core.CrackStrategy { return core.CrackStrategy{Name: "ddr", MinPiece: 2048, RNG: rng} }
	for _, tc := range []struct {
		old  core.CrackStrategy
		name string
		want core.CrackStrategy
	}{
		{ddr(99), "ddr", ddr(99)},
		{ddr(0), "ddr", ddr(5)},
		{core.CrackStrategy{}, "ddr", ddr(5)},
		{ddr(99), "standard", core.CrackStrategy{}},
		{core.CrackStrategy{}, "standard", core.CrackStrategy{}},
	} {
		if got, err := strategy.Handoff(tc.old, tc.name, 5); err != nil || got != tc.want {
			t.Errorf("Handoff(%+v, %q, 5) = %+v, %v; want %+v", tc.old, tc.name, got, err, tc.want)
		}
	}
	c := core.NewColumn("a", randomVals(20000, 4), core.WithStrategy(ddr(11)))
	walk(0, 5, c)
	before := rngOf(t, c)
	c.SwapStrategy(func(old core.CrackStrategy) core.CrackStrategy {
		next, err := strategy.Handoff(old, "mdd1r", 5)
		if err == nil || !strings.Contains(err.Error(), `"mdd1r"`) {
			t.Errorf("Handoff to mdd1r: %v, want an error naming it", err)
		}
		if err != nil {
			return old
		}
		return next
	})
	if c.StrategyName() != "ddr" || rngOf(t, c) != before {
		t.Fatalf("a refused handoff left %s at RNG %#x, want ddr at %#x", c.StrategyName(), rngOf(t, c), before)
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
