package expr

import (
	"testing"
	"testing/quick"
)

func TestPredMatch(t *testing.T) {
	cases := []struct {
		op   Op
		val  int64
		in   int64
		want bool
	}{
		{Lt, 10, 9, true}, {Lt, 10, 10, false},
		{Le, 10, 10, true}, {Le, 10, 11, false},
		{Eq, 10, 10, true}, {Eq, 10, 9, false},
		{Ge, 10, 10, true}, {Ge, 10, 9, false},
		{Gt, 10, 11, true}, {Gt, 10, 10, false},
		{Ne, 10, 9, true}, {Ne, 10, 10, false},
	}
	for _, c := range cases {
		p := Pred{Col: "a", Op: c.op, Val: c.val}
		if got := p.Match(c.in); got != c.want {
			t.Errorf("%v on %d = %v, want %v", p, c.in, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{Lt: "<", Le: "<=", Eq: "=", Ge: ">=", Gt: ">", Ne: "<>"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), s)
		}
	}
}

// Property: RangeOf(p) matches exactly the values p matches, for every
// operator that has a single-interval form.
func TestQuickRangeOfAgreesWithPred(t *testing.T) {
	f := func(val, probe int64, opRaw uint8) bool {
		op := Op(opRaw % 5) // Lt..Gt (Ne excluded: no interval form)
		p := Pred{Col: "a", Op: op, Val: val}
		r, ok := RangeOf(p)
		if !ok {
			return false
		}
		return r.Match(probe) == p.Match(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOfNe(t *testing.T) {
	if _, ok := RangeOf(Pred{Col: "a", Op: Ne, Val: 3}); ok {
		t.Fatal("Ne must not have an interval form")
	}
}

func TestPointAndEmpty(t *testing.T) {
	p := Point("a", 7)
	if !p.Match(7) || p.Match(6) || p.Match(8) {
		t.Fatal("Point range wrong")
	}
	if p.Empty() {
		t.Fatal("point range reported empty")
	}
	e := Range{Col: "a", Low: 5, High: 5, LowIncl: true, HighIncl: false}
	if !e.Empty() {
		t.Fatal("half-open single point not empty")
	}
	if !(Range{Col: "a", Low: 9, High: 2, LowIncl: true, HighIncl: true}).Empty() {
		t.Fatal("inverted range not empty")
	}
}

func TestIntersect(t *testing.T) {
	a := Range{Col: "a", Low: 0, High: 100, LowIncl: true, HighIncl: true}
	b := Range{Col: "a", Low: 50, High: 150, LowIncl: false, HighIncl: true}
	got := a.Intersect(b)
	if got.Low != 50 || got.LowIncl || got.High != 100 || !got.HighIncl {
		t.Fatalf("Intersect = %v", got)
	}
}

// Property: a value is in the intersection iff it is in both ranges.
func TestQuickIntersect(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2, probe int64, incl uint8) bool {
		a := Range{Low: lo1, High: hi1, LowIncl: incl&1 != 0, HighIncl: incl&2 != 0}
		b := Range{Low: lo2, High: hi2, LowIncl: incl&4 != 0, HighIncl: incl&8 != 0}
		got := a.Intersect(b)
		return got.Match(probe) == (a.Match(probe) && b.Match(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	outer := Range{Low: 0, High: 100, LowIncl: true, HighIncl: true}
	inner := Range{Low: 10, High: 90, LowIncl: true, HighIncl: false}
	if !outer.Contains(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Fatal("inner should not contain outer")
	}
	if !outer.Contains(Range{Low: 5, High: 1, LowIncl: true, HighIncl: true}) {
		t.Fatal("every range contains the empty range")
	}
	// Same bound, incompatible inclusivity.
	open := Range{Low: 0, High: 100, LowIncl: false, HighIncl: true}
	closed := Range{Low: 0, High: 100, LowIncl: true, HighIncl: true}
	if open.Contains(closed) {
		t.Fatal("open range cannot contain closed range with same bounds")
	}
	if !closed.Contains(open) {
		t.Fatal("closed range contains open range with same bounds")
	}
}

func TestTermAndDNF(t *testing.T) {
	term := Term{
		{Col: "a", Op: Ge, Val: 10},
		{Col: "a", Op: Lt, Val: 20},
		{Col: "b", Op: Eq, Val: 5},
	}
	row := map[string]int64{"a": 15, "b": 5}
	if !term.Match(row) {
		t.Fatal("term should match")
	}
	row["b"] = 6
	if term.Match(row) {
		t.Fatal("term should not match")
	}
	d := DNF{term, {{Col: "b", Op: Gt, Val: 5}}}
	if !d.Match(row) {
		t.Fatal("DNF second term should match")
	}
	if !(DNF{}).Match(row) {
		t.Fatal("empty DNF matches everything")
	}
}

func TestCrackAdvice(t *testing.T) {
	term := Term{
		{Col: "a", Op: Ge, Val: 10},
		{Col: "a", Op: Lt, Val: 20},
		{Col: "b", Op: Ne, Val: 3},
		{Col: "c", Op: Eq, Val: 7},
	}
	advice := CrackAdvice(term)
	if len(advice) != 2 {
		t.Fatalf("advice for %d columns, want 2 (Ne gives none)", len(advice))
	}
	a := advice["a"]
	if a.Low != 10 || !a.LowIncl || a.High != 20 || a.HighIncl {
		t.Fatalf("advice[a] = %v", a)
	}
	c := advice["c"]
	if c.Low != 7 || c.High != 7 || !c.LowIncl || !c.HighIncl {
		t.Fatalf("advice[c] = %v", c)
	}
}

func TestStringRendering(t *testing.T) {
	term := Term{{Col: "a", Op: Lt, Val: 10}, {Col: "k", Op: Eq, Val: 1}}
	if got := term.String(); got != "a < 10 AND k = 1" {
		t.Errorf("Term.String = %q", got)
	}
	d := DNF{term}
	if got := d.String(); got != "(a < 10 AND k = 1)" {
		t.Errorf("DNF.String = %q", got)
	}
	r := Range{Col: "a", Low: 1, High: 5, LowIncl: true, HighIncl: false}
	if got := r.String(); got != "a ∈ [1,5)" {
		t.Errorf("Range.String = %q", got)
	}
}
