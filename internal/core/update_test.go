package core

import (
	"math/rand"
	"testing"

	"crackdb/internal/bat"
)

func TestInsertVisibleToNextQuery(t *testing.T) {
	c := NewColumn("a", []int64{10, 20, 30})
	c.Select(5, 25, true, true) // crack a bit first
	oid := c.Insert(15)
	if oid != 3 {
		t.Fatalf("insert oid = %d, want 3", oid)
	}
	v := c.Select(10, 20, true, true)
	checkView(t, v, []int64{10, 15, 20})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteHidesTuple(t *testing.T) {
	c := NewColumn("a", []int64{10, 20, 30, 20})
	if !c.Delete(1) {
		t.Fatal("Delete(1) failed")
	}
	if c.Delete(1) {
		t.Fatal("double delete succeeded")
	}
	if c.Delete(99) {
		t.Fatal("delete of unknown oid succeeded")
	}
	v := c.Select(0, 100, true, true)
	checkView(t, v, []int64{10, 20, 30})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestDeletePendingInsert(t *testing.T) {
	c := NewColumn("a", []int64{1, 2})
	oid := c.Insert(50)
	if !c.Delete(oid) {
		t.Fatal("delete of pending insert failed")
	}
	v := c.Select(0, 100, true, true)
	checkView(t, v, []int64{1, 2})
}

// TestGroupCutsSurviveFold: after Ω the column is an ordinary cracked
// column, so a one-row insert ripples through the group cuts instead of
// dropping them, and a range on group bounds is answered from the index.
func TestGroupCutsSurviveFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	c := NewColumn("g", vals)
	GroupCrack(c)
	before := c.Stats()
	c.Insert(50)
	if got, want := c.Count(40, 59, true, true), len(naiveSelect(vals, 40, 59, true, true))+1; got != want {
		t.Fatalf("count [40, 59] = %d, want %d", got, want)
	}
	st := c.Stats()
	if st.RippleFolds-before.RippleFolds != 1 || st.RebuildFolds != before.RebuildFolds {
		t.Fatalf("%d ripple and %d rebuild folds, want 1 and 0",
			st.RippleFolds-before.RippleFolds, st.RebuildFolds-before.RebuildFolds)
	}
	if got := c.Pieces(); got != 100 {
		t.Fatalf("%d pieces after the fold, want the 100 groups", got)
	}
	if cracks, lookups := st.Cracks-before.Cracks, st.IndexLookups-before.IndexLookups; cracks != 0 || lookups != 2 {
		t.Fatalf("%d cracks and %d index lookups, want 0 and 2", cracks, lookups)
	}
	if moved := st.TuplesMoved - before.TuplesMoved; moved > 100 {
		t.Fatalf("the fold moved %d tuples, budget 100", moved)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedQueriesAndUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 500
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	c := NewColumn("a", vals)

	// Reference state: oid → value.
	ref := make(map[bat.OID]int64, n)
	for i, v := range vals {
		ref[bat.OID(i)] = v
	}

	liveOIDs := func() []bat.OID {
		out := make([]bat.OID, 0, len(ref))
		for oid := range ref {
			out = append(out, oid)
		}
		return out
	}

	for step := 0; step < 300; step++ {
		switch rng.Intn(4) {
		case 0: // insert
			v := rng.Int63n(1000)
			oid := c.Insert(v)
			ref[oid] = v
		case 1: // delete a live tuple
			oids := liveOIDs()
			if len(oids) == 0 {
				continue
			}
			victim := oids[rng.Intn(len(oids))]
			if !c.Delete(victim) {
				t.Fatalf("step %d: delete of live oid %d failed", step, victim)
			}
			delete(ref, victim)
		default: // range query, checked against the reference
			lo := rng.Int63n(1000)
			hi := lo + rng.Int63n(200)
			want := 0
			for _, v := range ref {
				if v >= lo && v <= hi {
					want++
				}
			}
			if got := c.Count(lo, hi, true, true); got != want {
				t.Fatalf("step %d: Count(%d,%d) = %d, want %d", step, lo, hi, got, want)
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}

	// Final loss-less check: ByOID equals the reference map exactly.
	got := c.ByOID()
	if len(got) != len(ref) {
		t.Fatalf("ByOID has %d entries, want %d", len(got), len(ref))
	}
	for oid, v := range ref {
		if got[oid] != v {
			t.Fatalf("oid %d = %d, want %d", oid, got[oid], v)
		}
	}
}
