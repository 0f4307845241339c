package core

import (
	"math/rand"
	"sort"
	"testing"

	"crackdb/internal/relation"
)

func buildTable(t *testing.T) *relation.Table {
	t.Helper()
	tbl := relation.New("R", "k", "a", "b")
	for i := int64(0); i < 20; i++ {
		if err := tbl.AppendRow(i, i*10, 100-i); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestPsiCrackSplitsAttributes(t *testing.T) {
	tbl := buildTable(t)
	head, rest, err := PsiCrack(tbl, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !head.HasColumn("oid") || !head.HasColumn("a") || head.Arity() != 2 {
		t.Fatalf("head columns = %v", head.ColumnNames())
	}
	if !rest.HasColumn("oid") || !rest.HasColumn("k") || !rest.HasColumn("b") || rest.Arity() != 3 {
		t.Fatalf("rest columns = %v", rest.ColumnNames())
	}
	if head.Len() != tbl.Len() || rest.Len() != tbl.Len() {
		t.Fatal("piece cardinalities differ from the original")
	}
	if _, _, err := PsiCrack(tbl, "zzz"); err == nil {
		t.Fatal("Ψ on missing attribute succeeded")
	}
}

func TestPsiReconstructLossless(t *testing.T) {
	tbl := buildTable(t)
	head, rest, err := PsiCrack(tbl, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := PsiReconstruct("R2", head, rest, tbl.ColumnNames())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tbl.Len() {
		t.Fatalf("reconstructed %d rows, want %d", got.Len(), tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		want, have := tbl.Row(i), got.Row(i)
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("row %d col %d: %d != %d", i, j, have[j], want[j])
			}
		}
	}
}

func TestJoinCrackSemijoinPieces(t *testing.T) {
	rvals := []int64{1, 5, 9, 3, 7, 2}
	svals := []int64{3, 8, 1, 7}
	r := NewColumn("R.k", rvals)
	s := NewColumn("S.k", svals)
	pieces := JoinCrack(View{col: r, Lo: 0, Hi: len(rvals)}, View{col: s, Lo: 0, Hi: len(svals)})

	match := func(v View) []int64 { return sortedCopy(v.Values()) }
	wantRMatch := []int64{1, 3, 7} // values of R present in S
	if got := match(pieces.RMatch); !equalInts(got, wantRMatch) {
		t.Fatalf("R⋉S = %v, want %v", got, wantRMatch)
	}
	wantRRest := []int64{2, 5, 9}
	if got := match(pieces.RRest); !equalInts(got, wantRRest) {
		t.Fatalf("R∖(R⋉S) = %v, want %v", got, wantRRest)
	}
	wantSMatch := []int64{1, 3, 7}
	if got := match(pieces.SMatch); !equalInts(got, wantSMatch) {
		t.Fatalf("S⋉R = %v, want %v", got, wantSMatch)
	}
	wantSRest := []int64{8}
	if got := match(pieces.SRest); !equalInts(got, wantSRest) {
		t.Fatalf("S∖(S⋉R) = %v, want %v", got, wantSRest)
	}

	// Loss-less: union of pieces preserves each input multiset.
	union := append(match(pieces.RMatch), match(pieces.RRest)...)
	if !equalInts(sortedCopy(union), sortedCopy(rvals)) {
		t.Fatal("^ pieces do not union to R")
	}
}

func TestJoinCrackWithinPiece(t *testing.T) {
	// ^ applied to the piece a previous Ξ produced (the Figure 5 flow).
	rvals := []int64{13, 4, 9, 2, 12, 7, 1, 19, 3, 6}
	r := NewColumn("R.a", rvals)
	sub := r.Select(1, 9, true, true)
	s := NewColumn("S.b", []int64{2, 7, 40})
	pieces := JoinCrack(sub, View{col: s, Lo: 0, Hi: s.Len()})
	if got := sortedCopy(pieces.RMatch.Values()); !equalInts(got, []int64{2, 7}) {
		t.Fatalf("match within piece = %v", got)
	}
	// The region outside the Ξ piece is untouched: the full multiset of
	// the column survives.
	all := sortedCopy(r.vals)
	if !equalInts(all, sortedCopy(rvals)) {
		t.Fatal("^ within a piece corrupted the column")
	}
	// Cuts outside the shuffled region stay valid.
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinCrackSelfJoin(t *testing.T) {
	vals := []int64{4, 1, 4, 2}
	c := NewColumn("T.k", vals)
	pieces := JoinCrack(View{col: c, Lo: 0, Hi: 4}, View{col: c, Lo: 0, Hi: 4})
	if pieces.RMatch.Len() != 4 || pieces.RRest.Len() != 0 {
		t.Fatalf("self-join match = %d/%d, want 4/0", pieces.RMatch.Len(), pieces.RRest.Len())
	}
}

func TestGroupCrackClusters(t *testing.T) {
	vals := []int64{3, 1, 3, 2, 1, 3, 2, 2, 2}
	c := NewColumn("g", vals)
	groups := GroupCrack(c)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	wantSizes := map[int64]int{1: 2, 2: 4, 3: 3}
	pos := 0
	for _, g := range groups {
		if g.View.Len() != wantSizes[g.Value] {
			t.Fatalf("group %d has %d tuples, want %d", g.Value, g.View.Len(), wantSizes[g.Value])
		}
		if g.View.Lo != pos {
			t.Fatalf("groups not consecutive at %d", pos)
		}
		pos = g.View.Hi
		for _, v := range g.View.Values() {
			if v != g.Value {
				t.Fatalf("group %d contains %d", g.Value, v)
			}
		}
	}
	if pos != len(vals) {
		t.Fatal("groups do not tile the column")
	}
	// After Ω, range selects are pure binary searches.
	moved := c.Stats().TuplesMoved
	c.Select(2, 3, true, false)
	if c.Stats().TuplesMoved != moved {
		t.Fatal("select after Ω moved tuples")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCrackAfterSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(rng.Intn(10))
	}
	c := NewColumn("g", vals)
	c.Select(3, 7, true, false) // crack first, then group
	groups := GroupCrack(c)
	total := 0
	for _, g := range groups {
		total += g.View.Len()
	}
	if total != len(vals) {
		t.Fatalf("groups cover %d of %d tuples", total, len(vals))
	}
	if !equalInts(sortedCopy(c.vals), sortedCopy(vals)) {
		t.Fatal("Ω corrupted the column multiset")
	}
}

func TestGroupCrackRespectsMaxPieces(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i) // 100 distinct groups
	}
	c := NewColumn("g", vals, WithMaxPieces(10))
	groups := GroupCrack(c)
	if len(groups) != 100 {
		t.Fatalf("groups = %d, want 100", len(groups))
	}
	if c.Pieces() > 10 {
		t.Fatalf("index registered %d pieces, budget 10", c.Pieces())
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCrackedTableSelectAndFetch(t *testing.T) {
	tbl := buildTable(t)
	ct := NewCrackedTable(tbl)
	_, oids, err := ct.SelectCopy(rangeOf("a", 50, 120))
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 8 { // a in {50..120}: 50,60,...,120
		t.Fatalf("select len = %d, want 8", len(oids))
	}
	res, err := ct.Fetch(oids, "k", "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		row := res.RowMap(i)
		if row["b"] != 100-row["k"] {
			t.Fatalf("fetched row %v inconsistent", row)
		}
	}
	if _, _, err := ct.SelectCopy(rangeOf("zzz", 0, 1)); err == nil {
		t.Fatal("select on missing column succeeded")
	}
	if len(ct.CrackedColumns()) != 1 {
		t.Fatalf("cracked columns = %v", ct.CrackedColumns())
	}
}

func TestCrackedTableSelectTerm(t *testing.T) {
	tbl := buildTable(t)
	ct := NewCrackedTable(tbl)
	term := termGE_LT("a", 50, 150)
	term = append(term, predLT("k", 12)...)
	oids, err := ct.SelectTerm(term)
	if err != nil {
		t.Fatal(err)
	}
	// a in [50,150) → k in {5..14}; k < 12 → k in {5..11}.
	if len(oids) != 7 {
		t.Fatalf("SelectTerm found %d, want 7", len(oids))
	}
	want := tbl.Filter("ref", term)
	if want.Len() != len(oids) {
		t.Fatalf("reference filter found %d", want.Len())
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for i, oid := range oids {
		if int64(oid) != want.RowMap(i)["k"] {
			t.Fatalf("oid %d does not match reference row %d", oid, i)
		}
	}
	if s := ct.Stats(); s.Queries == 0 {
		t.Fatal("table stats empty")
	}
}
