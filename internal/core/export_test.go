package core

import (
	"math/rand"
	"reflect"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/relation"
)

// TestColumnStateRoundTrip cracks a column into shape, exports it, and
// checks the reconstruction is observationally identical: same cut set,
// same physical order, same pending/deleted bookkeeping, same answers.
func TestColumnStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(5000)
	}
	c := NewColumn("a", vals)
	for i := 0; i < 40; i++ {
		lo := rng.Int63n(4500)
		c.Select(lo, lo+rng.Int63n(400)+1, true, rng.Intn(2) == 0)
	}
	c.Insert(9999)
	c.Insert(-7)
	c.Delete(3)
	c.Delete(100)

	st, _ := c.TakeState(true)
	c2, err := ColumnFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Verify(); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.Len(), c.Len(); got != want {
		t.Fatalf("restored Len %d, want %d", got, want)
	}
	if got, want := c2.Pieces(), c.Pieces(); got != want {
		t.Fatalf("restored Pieces %d, want %d", got, want)
	}
	if got, want := c2.Index().String(), c.Index().String(); got != want {
		t.Fatalf("restored cut set\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(c2.ByOID(), c.ByOID()) {
		t.Fatal("restored ByOID mapping differs")
	}
	// Both must answer a query stream identically (the restored column
	// keeps cracking from the same physical state).
	for i := 0; i < 50; i++ {
		lo := rng.Int63n(4500)
		hi := lo + rng.Int63n(600) + 1
		v1, o1 := c.SelectCopy(lo, hi, true, true)
		v2, o2 := c2.SelectCopy(lo, hi, true, true)
		if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(o1, o2) {
			t.Fatalf("query %d: answers diverge after restore", i)
		}
	}
	if err := c2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnStateRoundTripSorted covers the SortAll fast path: a
// restored sorted column must keep answering cuts by binary search.
func TestColumnStateRoundTripSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(2000)
	}
	c := NewColumn("s", vals)
	c.SortAll()
	c.Select(100, 500, true, true)
	st, _ := c.TakeState(true)
	c2, err := ColumnFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	before := c2.Stats().TuplesMoved
	c2.Select(700, 900, true, true)
	if moved := c2.Stats().TuplesMoved - before; moved != 0 {
		t.Fatalf("restored sorted column moved %d tuples on a cut", moved)
	}
	v1, _ := c.SelectCopy(700, 900, true, true)
	v2, _ := c2.SelectCopy(700, 900, true, true)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("sorted restore answers diverge")
	}
}

// TestColumnFromStateRejectsCorruption: a state violating the cut
// invariant (or with inconsistent vectors) must be refused, not served.
func TestColumnFromStateRejectsCorruption(t *testing.T) {
	c := NewColumn("a", []int64{5, 1, 9, 3, 7})
	c.Select(4, 8, true, true)
	good, _ := c.TakeState(true)

	bad := good
	bad.Vals = append([]int64(nil), good.Vals...)
	// Move a small value past a cut: the invariant breaks.
	bad.Vals[len(bad.Vals)-1], bad.Vals[0] = bad.Vals[0], bad.Vals[len(bad.Vals)-1]
	if _, err := ColumnFromState(bad); err == nil {
		t.Fatal("accepted a state violating the cut invariant")
	}

	bad2 := good
	bad2.OIDs = good.OIDs[:len(good.OIDs)-1]
	if _, err := ColumnFromState(bad2); err == nil {
		t.Fatal("accepted mismatched vals/oids lengths")
	}

	bad3 := good
	bad3.Cuts = append([]Cut(nil), good.Cuts...)
	bad3.Cuts[0].Pos = len(good.Vals) + 5
	if _, err := ColumnFromState(bad3); err == nil {
		t.Fatal("accepted a cut position past the vector")
	}
}

// TestReplaceColumnGuards: ReplaceColumn must refuse misaligned
// restores — OID alignment is what makes fetches correct — and let a
// later image element supersede a live column.
func TestReplaceColumnGuards(t *testing.T) {
	base := relation.New("t", "k", "v")
	for i := 0; i < 10; i++ {
		if err := base.AppendRow(int64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	ct := NewCrackedTable(base)
	short, err := ColumnFromState(ColumnState{
		Name: "k", Vals: []int64{1}, OIDs: []bat.OID{0}, NextOID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.ReplaceColumn("k", short); err == nil {
		t.Fatal("accepted a column shorter than the base")
	}
	if err := ct.ReplaceColumn("nope", short); err == nil {
		t.Fatal("accepted an unknown attribute")
	}
	full := NewColumn("t.k", base.MustColumn("k").Ints())
	for i := 0; i < 2; i++ {
		if err := ct.ReplaceColumn("k", full); err != nil {
			t.Fatalf("restore %d over the base: %v", i, err)
		}
	}
}
