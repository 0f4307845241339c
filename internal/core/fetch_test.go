package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/relation"
)

// fetchByAppendRow is the base fetch as it was before the columnar
// gather: one AppendRow per tuple into a fresh relation. It stays here
// as the oracle FetchColumns and Fetch are held against.
func fetchByAppendRow(ct *CrackedTable, oids []bat.OID, attrs ...string) (*relation.Table, error) {
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	out := relation.New(ct.base.Name+"_result", attrs...)
	bats := make([]*bat.BAT, len(attrs))
	for i, a := range attrs {
		b, err := ct.base.Column(a)
		if err != nil {
			return nil, err
		}
		bats[i] = b
	}
	row := make([]int64, len(attrs))
	for _, oid := range oids {
		if int(oid) >= ct.base.Len() {
			return nil, fmt.Errorf("core: fetch of unknown oid %d", oid)
		}
		for i, b := range bats {
			row[i] = b.Int(int(oid))
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestFetchColumnsMatchesFetch(t *testing.T) {
	const n = 500
	ct := NewCrackedTable(relation.Tapestry(n, 4, 3))
	rng := rand.New(rand.NewSource(4))
	attrSets := [][]string{{"c0", "c1", "c2"}, {"c3"}, {"c2", "c0"}, {}}
	for trial := 0; trial < 200; trial++ {
		oids := make([]bat.OID, rng.Intn(64)) // repeats and any order allowed
		for i := range oids {
			oids[i] = bat.OID(rng.Intn(n))
		}
		attrs := attrSets[trial%len(attrSets)]
		want, err := fetchByAppendRow(ct, oids, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		before := ct.FetchedTuples()
		vecs, err := ct.FetchColumns(oids, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.FetchedTuples() - before; got != int64(len(oids)) {
			t.Fatalf("FetchColumns of %d oids counted %d fetched tuples", len(oids), got)
		}
		got, err := ct.Fetch(oids, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if len(vecs) != len(attrs) || got.Arity() != len(attrs) || !slices.Equal(got.ColumnNames(), want.ColumnNames()) {
			t.Fatalf("attrs %v: %d vectors, relation columns %v", attrs, len(vecs), got.ColumnNames())
		}
		for j, a := range attrs {
			if !slices.Equal(vecs[j], want.MustColumn(a).Ints()) {
				t.Fatalf("trial %d: FetchColumns %s = %v, oracle %v", trial, a, vecs[j], want.MustColumn(a).Ints())
			}
			if !slices.Equal(got.MustColumn(a).Ints(), want.MustColumn(a).Ints()) {
				t.Fatalf("trial %d: Fetch %s differs from the oracle", trial, a)
			}
		}
	}

	// An OID past the base is refused by all three, and counts nothing.
	bad := []bat.OID{1, n, 2}
	before := ct.FetchedTuples()
	if _, err := fetchByAppendRow(ct, bad, "c0"); err == nil {
		t.Fatal("oracle fetched an unknown oid")
	}
	if _, err := ct.FetchColumns(bad, "c0"); err == nil {
		t.Fatal("FetchColumns fetched an unknown oid")
	}
	if _, err := ct.Fetch(bad, "c0"); err == nil {
		t.Fatal("Fetch fetched an unknown oid")
	}
	if _, err := ct.FetchColumns([]bat.OID{1}, "nope"); err == nil {
		t.Fatal("FetchColumns fetched an unknown attribute")
	}
	if got := ct.FetchedTuples(); got != before {
		t.Fatalf("refused fetches counted %d tuples", got-before)
	}

	// A fetched relation owns its vectors: growing one column must not
	// run into the next (they are cut from one backing array).
	rel, err := ct.Fetch([]bat.OID{0, 1}, "c0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	c1 := slices.Clone(rel.MustColumn("c1").Ints())
	if err := rel.AppendRow(-7, -8); err != nil {
		t.Fatal(err)
	}
	if got := rel.MustColumn("c1").Ints(); !slices.Equal(got[:2], c1) || got[2] != -8 {
		t.Fatalf("append to c0 overwrote c1: %v, had %v", got, c1)
	}
}
