package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// tableOf wraps the rows of one attribute as a cracked table: the base a
// standalone column over the same values, and the inserts it queued,
// restores against.
func tableOf(t *testing.T, attr string, vals []int64) *CrackedTable {
	t.Helper()
	base, err := relation.FromColumns("t", relation.Column{Name: attr, Data: bat.FromInts(attr, vals)})
	if err != nil {
		t.Fatal(err)
	}
	return NewCrackedTable(base)
}

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
	c2, err := tableOf(t, "a", append(vals, 9999, -7)).ColumnFromState("a", st)
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
	c2, err := tableOf(t, "s", vals).ColumnFromState("s", st)
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

// TestColumnFromStateRejectsCorruption: a state the table's rows
// contradict — values out of cut order, an OID vector that does not
// number the column's tuples once each, a tombstoned row still stored,
// a payload of no other attribute — must be refused with an error that
// names the column, not served.
func TestColumnFromStateRejectsCorruption(t *testing.T) {
	base, err := relation.FromColumns("t",
		relation.Column{Name: "a", Data: bat.FromInts("a", []int64{5, 1, 9, 3, 7, 4})},
		relation.Column{Name: "b", Data: bat.FromInts("b", []int64{50, 10, 90, 30, 70, 40})})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCrackedTable(base)
	c, err := ct.ColumnFor("a")
	if err != nil {
		t.Fatal(err)
	}
	c.Select(4, 8, true, true)
	if _, err := ct.AttachPayload("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if ct.DeleteOIDs([]bat.OID{5}) != 1 { // stored until the next fold compacts it
		t.Fatal("delete refused")
	}
	good, _ := c.TakeState(true)
	if len(good.Cuts) == 0 || len(good.Deleted) != 1 {
		t.Fatalf("fixture has %d cuts and deletes %v, want cuts and oid 5 deleted", len(good.Cuts), good.Deleted)
	}
	if _, err := ct.ColumnFromState("a", good); err != nil {
		t.Fatalf("the live column's own state: %v", err)
	}
	for name, mutate := range map[string]func(st *ColumnState){
		"values out of cut order": func(st *ColumnState) {
			last := len(st.OIDs) - 1
			st.OIDs[0], st.OIDs[last] = st.OIDs[last], st.OIDs[0]
		},
		"duplicate oid":              func(st *ColumnState) { st.OIDs[1] = st.OIDs[0] },
		"oid past the table":         func(st *ColumnState) { st.OIDs[0] = 6 },
		"next oid past the table":    func(st *ColumnState) { st.NextOID = 7 },
		"oid at next oid":            func(st *ColumnState) { st.NextOID-- },
		"pending oid held twice":     func(st *ColumnState) { st.Pending = []bat.OID{st.OIDs[0]} },
		"compacted tombstone stored": func(st *ColumnState) { st.Deleted = nil },
		"unknown payload":            func(st *ColumnState) { st.Pays = []string{"zz"} },
		"payload of its own column":  func(st *ColumnState) { st.Pays = []string{"a"} },
		"payload listed twice":       func(st *ColumnState) { st.Pays = []string{"b", "b"} },
		"cuts out of key order": func(st *ColumnState) {
			st.Cuts = append(st.Cuts, st.Cuts[0])
		},
		"a patch": func(st *ColumnState) { st.Patch = true },
	} {
		bad := good
		bad.OIDs, bad.Cuts = slices.Clone(good.OIDs), slices.Clone(good.Cuts)
		mutate(&bad)
		if _, err := ct.ColumnFromState("a", bad); err == nil || !strings.Contains(err.Error(), `"t.a"`) {
			t.Errorf("%s: want an error naming column t.a, got %v", name, err)
		}
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
	short, err := ct.ColumnFromState("k", ColumnState{
		Name: "k", OIDs: []bat.OID{0}, NextOID: 1,
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

// SelectTerm answers a conjunctive term: the term's crack advice is
// applied to the most selective advised column (smallest resulting
// piece), and the remaining conjuncts are evaluated by fetching attribute
// values through the OIDs — a select-push-down the Ξ cracker "effectively
// realizes" for the optimizer (§3.3).
func (ct *CrackedTable) SelectTerm(term expr.Term) ([]bat.OID, error) {
	advice := expr.CrackAdvice(term)
	if len(advice) == 0 {
		// No crackable range: scan everything and post-filter.
		return ct.filterOIDs(allOIDs(ct.baseLen()), term)
	}
	var best []bat.OID
	bestCol := ""
	for col, r := range advice {
		c, err := ct.ColumnFor(r.Col)
		if err != nil {
			return nil, err
		}
		_, oids := c.SelectCopy(r.Low, r.High, r.LowIncl, r.HighIncl)
		if bestCol == "" || len(oids) < len(best) {
			best, bestCol = oids, col
		}
	}
	return ct.filterOIDs(best, term)
}

// ByOID returns the live values keyed by OID — the loss-less
// reconstruction witness used by the property tests.
func (c *Column) ByOID() map[bat.OID]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[bat.OID]int64, len(c.vals)+len(c.pending))
	for i, oid := range c.oids {
		if _, gone := c.deleted[oid]; gone {
			continue
		}
		out[oid] = c.vals[i]
	}
	for _, p := range c.pending {
		if _, gone := c.deleted[p.oid]; gone {
			continue
		}
		out[p.oid] = p.val
	}
	return out
}
