package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// naiveSelect is the reference evaluator every cracked answer is checked
// against.
func naiveSelect(vals []int64, low, high int64, lowIncl, highIncl bool) []int64 {
	var out []int64
	for _, v := range vals {
		okLow := v > low || (lowIncl && v == low)
		okHigh := v < high || (highIncl && v == high)
		if okLow && okHigh {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedCopy(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkView(t *testing.T, v View, want []int64) {
	t.Helper()
	got := sortedCopy(v.Values())
	if len(got) != len(want) {
		t.Fatalf("view has %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("view[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelectBasic(t *testing.T) {
	vals := []int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6}
	c := NewColumn("a", vals)
	v := c.Select(7, 16, true, false)
	checkView(t, v, naiveSelect(vals, 7, 16, true, false))
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// The answer must be one contiguous region.
	if v.Len() != len(naiveSelect(vals, 7, 16, true, false)) {
		t.Fatal("contiguity lost")
	}
}

func TestSelectAllBoundCombinations(t *testing.T) {
	vals := []int64{5, 5, 2, 9, 7, 5, 1, 9, 0, 3}
	for _, lowIncl := range []bool{true, false} {
		for _, highIncl := range []bool{true, false} {
			c := NewColumn("a", vals)
			v := c.Select(3, 7, lowIncl, highIncl)
			checkView(t, v, naiveSelect(vals, 3, 7, lowIncl, highIncl))
			if err := c.Verify(); err != nil {
				t.Fatalf("lowIncl=%v highIncl=%v: %v", lowIncl, highIncl, err)
			}
		}
	}
}

func TestSelectPointQuery(t *testing.T) {
	vals := []int64{4, 2, 4, 4, 1, 9, 4}
	c := NewColumn("a", vals)
	v := c.Select(4, 4, true, true)
	if v.Len() != 4 {
		t.Fatalf("point query found %d, want 4", v.Len())
	}
	for _, got := range v.Values() {
		if got != 4 {
			t.Fatalf("point query returned %d", got)
		}
	}
}

func TestSelectEmptyAndInverted(t *testing.T) {
	c := NewColumn("a", []int64{1, 2, 3})
	if v := c.Select(10, 5, true, true); v.Len() != 0 {
		t.Fatalf("inverted range returned %d tuples", v.Len())
	}
	if v := c.Select(5, 5, true, false); v.Len() != 0 {
		t.Fatalf("half-open point returned %d tuples", v.Len())
	}
	if v := c.Select(100, 200, true, true); v.Len() != 0 {
		t.Fatalf("out-of-domain range returned %d tuples", v.Len())
	}
	empty := NewColumn("e", nil)
	if v := empty.Select(0, 10, true, true); v.Len() != 0 {
		t.Fatal("empty column returned tuples")
	}
}

func TestSelectOneSided(t *testing.T) {
	vals := []int64{6, 1, 9, 3, 7, 2}
	c := NewColumn("a", vals)
	checkView(t, c.Select(math.MinInt64, 5, true, false), []int64{1, 2, 3})
	checkView(t, c.Select(7, math.MaxInt64, true, true), []int64{7, 9})
}

func TestCrackInThreeSinglePass(t *testing.T) {
	vals := make([]int64, 100)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
	}
	c := NewColumn("a", vals)
	v := c.Select(10, 30, true, true) // virgin column: both cuts in one piece
	checkView(t, v, naiveSelect(vals, 10, 30, true, true))
	s := c.Stats()
	if s.Cracks != 1 {
		t.Fatalf("crack-in-three used %d passes, want 1", s.Cracks)
	}
	if c.Pieces() != 3 {
		t.Fatalf("pieces = %d, want 3", c.Pieces())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedQueryIsIndexOnly(t *testing.T) {
	vals := make([]int64, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	c := NewColumn("a", vals)
	first := c.Select(100, 300, true, false)
	movedAfterFirst := c.Stats().TuplesMoved
	second := c.Select(100, 300, true, false)
	if c.Stats().TuplesMoved != movedAfterFirst {
		t.Fatal("repeated query moved tuples")
	}
	if first.Lo != second.Lo || first.Hi != second.Hi {
		t.Fatal("repeated query returned different window")
	}
	// A sub-range only cracks within the answer piece.
	movedBefore := c.Stats().TuplesMoved
	sub := c.Select(150, 250, true, false)
	checkView(t, sub, naiveSelect(vals, 150, 250, true, false))
	if moved := c.Stats().TuplesMoved - movedBefore; moved > int64(first.Len()*2) {
		t.Fatalf("sub-range moved %d tuples, more than the enclosing piece", moved)
	}
}

func TestSortAllThenSelectMovesNothing(t *testing.T) {
	vals := []int64{9, 1, 8, 2, 7, 3}
	c := NewColumn("a", vals)
	c.SortAll()
	moved := c.Stats().TuplesMoved
	v := c.Select(2, 8, true, true)
	checkView(t, v, naiveSelect(vals, 2, 8, true, true))
	if c.Stats().TuplesMoved != moved {
		t.Fatal("select on sorted column moved tuples")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestProgressiveRefinementConverges(t *testing.T) {
	// A homerun-style zoom: per-query movement must shrink.
	n := 10000
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(n))
	}
	c := NewColumn("a", vals)
	lo, hi := int64(0), int64(n)
	var prevTouched int64 = math.MaxInt64
	for step := 0; step < 12; step++ {
		before := c.Stats().TuplesTouched
		c.Select(lo, hi, true, false)
		touched := c.Stats().TuplesTouched - before
		// Each refinement cracks inside the previous answer piece, so the
		// work per step can never grow.
		if touched > prevTouched {
			t.Fatalf("step %d touched %d tuples, previous step touched %d", step, touched, prevTouched)
		}
		prevTouched = touched
		lo += int64(n / 30)
		hi -= int64(n / 30)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFusionBoundsPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(2000)
	}
	c := NewColumn("a", vals, WithMaxPieces(8))
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1900)
		c.Select(lo, lo+rng.Int63n(100), true, false)
		if got := c.Pieces(); got > 8 {
			t.Fatalf("pieces = %d exceeds MaxPieces after query %d", got, q)
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("after query %d: %v", q, err)
		}
	}
	if c.Stats().Fusions == 0 {
		t.Fatal("no fusion happened under a tight piece budget")
	}
	// Queries remain correct after fusion.
	v := c.Select(100, 400, true, false)
	checkView(t, v, naiveSelect(vals, 100, 400, true, false))
}

func TestLineageRecordsCracks(t *testing.T) {
	c := NewColumn("R", []int64{13, 4, 9, 2, 12, 7, 1, 19})
	c.Select(5, 10, true, false)
	lin := c.Lineage()
	if lin.Size() < 3 {
		t.Fatalf("lineage has %d nodes, want root + children", lin.Size())
	}
	leaves := lin.Leaves()
	// Leaves must tile [0, n).
	pos := 0
	for _, l := range leaves {
		if l.Lo != pos {
			t.Fatalf("lineage leaves do not tile: gap at %d (leaf %s)", pos, l.ID)
		}
		pos = l.Hi
	}
	if pos != 8 {
		t.Fatalf("lineage leaves end at %d, want 8", pos)
	}
	if lin.Render() == "" {
		t.Fatal("lineage render empty")
	}
}

// TestLineageFoldedOnDemand: cracks are logged, not linked, so the DAG
// only exists once somebody asks. After 10 000 random cracks the folded
// leaves tile [0, n) and are exactly the index's pieces; and folding
// after every crack renders the same tree as folding once at the end.
func TestLineageFoldedOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n = 200_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	c := NewColumn("R", vals)
	for q := 0; q < 10_000; q++ {
		lo := rng.Int63n(1 << 40)
		c.Select(lo, lo+rng.Int63n(1<<30), rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
	pieces := c.Index().Pieces(n)
	leaves := c.Lineage().Leaves()
	if len(leaves) != len(pieces) {
		t.Fatalf("%d lineage leaves, index has %d pieces", len(leaves), len(pieces))
	}
	for i, l := range leaves {
		if [2]int{l.Lo, l.Hi} != pieces[i] {
			t.Fatalf("leaf %d = [%d,%d), piece %v", i, l.Lo, l.Hi, pieces[i])
		}
	}
	if leaves[0].Lo != 0 || leaves[len(leaves)-1].Hi != n {
		t.Fatalf("leaves span [%d,%d), want [0,%d)", leaves[0].Lo, leaves[len(leaves)-1].Hi, n)
	}

	small := vals[:2000]
	eager, lazy := NewColumn("R", small), NewColumn("R", small)
	for q := 0; q < 300; q++ {
		lo, w := rng.Int63n(1<<40), rng.Int63n(1<<37)
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		eager.Select(lo, lo+w, loIncl, hiIncl)
		eager.Lineage()
		lazy.Select(lo, lo+w, loIncl, hiIncl)
	}
	if a, b := eager.Lineage().Render(), lazy.Lineage().Render(); a != b {
		t.Fatalf("folding per crack and folding once render differently:\n%s\nvs\n%s", a, b)
	}
}

// TestLineageRerootsAfterFold: lineage nodes and the crack log hold
// absolute positions, so a fold that moves cuts would leave them naming
// the wrong pieces. The fold marks the lineage stale instead, and the
// next reader gets one root cracked into the pieces the index has now —
// the same lazy path a restored column takes — with later cracks folded
// in on top.
func TestLineageRerootsAfterFold(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	c := NewColumn("R", vals)
	crack := func(k int) {
		for q := 0; q < k; q++ {
			lo := rng.Int63n(1 << 20)
			c.Select(lo, lo+rng.Int63n(1<<14), rng.Intn(2) == 0, rng.Intn(2) == 0)
		}
	}
	checkTiles := func(c *Column, why string) {
		t.Helper()
		size := c.Len()
		pieces := c.Index().Pieces(size)
		leaves := c.Lineage().Leaves()
		if len(leaves) != len(pieces) {
			t.Fatalf("%s: %d lineage leaves, index has %d pieces", why, len(leaves), len(pieces))
		}
		for i, l := range leaves {
			if [2]int{l.Lo, l.Hi} != pieces[i] {
				t.Fatalf("%s: leaf %d = [%d,%d), piece %v", why, i, l.Lo, l.Hi, pieces[i])
			}
		}
	}
	crack(200)
	c.Lineage() // fold the log into a DAG the update then invalidates
	for i := 0; i < 40; i++ {
		c.Insert(rng.Int63n(1 << 20)) // mid-domain: cuts shift
	}
	c.Delete(7)
	crack(50) // folds, then logs cracks at post-fold positions
	if c.Stats().CutsShifted == 0 {
		t.Fatal("the fold shifted no cut: the test does not exercise re-rooting")
	}
	checkTiles(c, "after a cut-moving fold")
	if !strings.Contains(c.Lineage().Render(), "after update") {
		t.Fatalf("re-rooted lineage does not say why:\n%s", c.Lineage().Render())
	}
	crack(50)
	checkTiles(c, "cracks after the re-root")

	// JoinCrack reads the lineage too: on a stale one it must re-root,
	// not split leaves that are no longer there.
	c.Insert(1 << 19)
	v := c.Select(1<<18, 1<<19, true, true)
	jp := JoinCrack(v, NewColumn("S", vals[:100]).Select(0, 1<<20, true, true))
	pos, split := 0, false
	for _, l := range c.Lineage().Leaves() {
		if l.Lo != pos {
			t.Fatalf("after a join crack on a stale lineage: leaves do not tile at %d", pos)
		}
		pos = l.Hi
		split = split || l.Op == "^" && l.Lo == jp.RMatch.Lo && l.Hi == jp.RMatch.Hi
	}
	if pos != c.Len() || !split {
		t.Fatalf("leaves end at %d of %d; ^ piece recorded: %v", pos, c.Len(), split)
	}
	crack(20)

	// A restored column allocates no lineage until asked.
	st, _ := c.TakeState(true)
	r, err := ColumnFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.lin != nil {
		t.Fatal("ColumnFromState built a lineage eagerly")
	}
	checkTiles(r, "restored")
	if !strings.Contains(r.Lineage().Render(), "restored") {
		t.Fatalf("restored lineage does not say so:\n%s", r.Lineage().Render())
	}
}

func TestStatsAccounting(t *testing.T) {
	c := NewColumn("a", []int64{5, 3, 8, 1, 9, 2})
	if s := c.Stats(); s.Queries != 0 {
		t.Fatal("fresh column has queries")
	}
	c.Select(2, 7, true, false)
	s := c.Stats()
	if s.Queries != 1 || s.Cracks == 0 || s.TuplesTouched == 0 {
		t.Fatalf("stats not recorded: %+v", s)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestSelectCopyDetaches(t *testing.T) {
	vals := []int64{5, 3, 8, 1, 9, 2}
	c := NewColumn("a", vals)
	mv, moids := c.SelectCopy(3, 8, true, true)
	if len(mv) != 3 || len(moids) != 3 {
		t.Fatalf("copy holds %d values and %d oids, want 3", len(mv), len(moids))
	}
	// Further cracking must not disturb the copy.
	want := append([]int64(nil), mv...)
	c.Select(4, 6, true, true)
	for i := range want {
		if mv[i] != want[i] {
			t.Fatal("copy mutated by later crack")
		}
	}
}

func TestOIDsTrackValues(t *testing.T) {
	vals := []int64{50, 30, 80, 10, 90, 20}
	c := NewColumn("a", vals)
	v := c.Select(20, 50, true, true)
	for i, oid := range v.OIDs() {
		if vals[oid] != v.Values()[i] {
			t.Fatalf("oid %d maps to %d, view says %d", oid, vals[oid], v.Values()[i])
		}
	}
}

func TestCountMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	c := NewColumn("a", vals)
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(90)
		hi := lo + rng.Int63n(20)
		if got, want := c.Count(lo, hi, true, true), len(naiveSelect(vals, lo, hi, true, true)); got != want {
			t.Fatalf("Count(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestMinMaxDomainBounds(t *testing.T) {
	vals := []int64{math.MinInt64, 0, math.MaxInt64, -1, 1}
	c := NewColumn("a", vals)
	v := c.Select(math.MinInt64, math.MaxInt64, true, true)
	if v.Len() != len(vals) {
		t.Fatalf("full-domain select returned %d of %d", v.Len(), len(vals))
	}
	checkView(t, c.Select(0, math.MaxInt64, false, true), []int64{1, math.MaxInt64})
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}
