package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crackdb/internal/bat"
)

func TestRippleInsertKeepsIndexValid(t *testing.T) {
	vals := []int64{50, 10, 90, 30, 70, 20, 80, 40, 60, 0}
	c := NewColumn("a", vals, WithFold(FoldRipple))
	// Crack into several pieces first.
	c.Select(25, 65, true, true)
	c.Select(45, 85, true, true)
	piecesBefore := c.Pieces()

	c.Insert(55)
	c.Insert(5)
	c.Insert(95)
	v := c.Select(0, 100, true, true)
	if v.Len() != 13 {
		t.Fatalf("select after ripple inserts returned %d, want 13", v.Len())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// The index survived (a rebuild would have reset it).
	if got := c.Pieces(); got < piecesBefore {
		t.Fatalf("ripple merge dropped pieces: %d < %d", got, piecesBefore)
	}
	checkView(t, c.Select(50, 60, true, true), []int64{50, 55, 60})
}

func TestRippleDeleteKeepsIndexValid(t *testing.T) {
	vals := []int64{50, 10, 90, 30, 70, 20, 80, 40, 60, 0}
	c := NewColumn("a", vals, WithFold(FoldRipple))
	c.Select(25, 65, true, true)
	piecesBefore := c.Pieces()

	// Delete oids of values 30 and 80 (positions track values via ByOID).
	byOID := c.ByOID()
	for oid, v := range byOID {
		if v == 30 || v == 80 {
			if !c.Delete(oid) {
				t.Fatalf("delete of oid %d failed", oid)
			}
		}
	}
	v := c.Select(0, 100, true, true)
	if v.Len() != 8 {
		t.Fatalf("select after ripple deletes returned %d, want 8", v.Len())
	}
	for _, got := range v.Values() {
		if got == 30 || got == 80 {
			t.Fatalf("deleted value %d still present", got)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := c.Pieces(); got < piecesBefore {
		t.Fatalf("ripple delete dropped pieces: %d < %d", got, piecesBefore)
	}
}

// TestRippleCheaperThanRebuildForTrickle: a trickle of single inserts
// between queries costs a ripple fold far fewer tuples read than a
// rebuild, which drops the index and has every later query re-crack
// pieces it had already cracked. The work is compared in tuples touched:
// a crack writes only misplaced tuples, so re-cracking after a rebuild
// writes little, but it reads the pieces again.
func TestRippleCheaperThanRebuildForTrickle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20000
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(int64(n))
	}

	run := func(fold foldKind) Stats {
		c := NewColumn("a", base, WithFold(fold))
		// Crack well first.
		qrng := rand.New(rand.NewSource(17))
		for q := 0; q < 30; q++ {
			lo := qrng.Int63n(int64(n) - 500)
			c.Select(lo, lo+500, true, true)
		}
		warm := c.Stats()
		// Trickle: alternate one insert with one query.
		for step := 0; step < 50; step++ {
			c.Insert(qrng.Int63n(int64(n)))
			lo := qrng.Int63n(int64(n) - 500)
			c.Select(lo, lo+500, true, true)
		}
		st := c.Stats()
		return Stats{TuplesTouched: st.TuplesTouched - warm.TuplesTouched, TuplesMoved: st.TuplesMoved - warm.TuplesMoved}
	}

	ripple := run(FoldRipple)
	complete := run(FoldRebuild)
	t.Logf("after warm-up: ripple touched %d and moved %d, rebuild touched %d and moved %d",
		ripple.TuplesTouched, ripple.TuplesMoved, complete.TuplesTouched, complete.TuplesMoved)
	if ripple.TuplesTouched*2 >= complete.TuplesTouched {
		t.Fatalf("ripple touched %d tuples, not well below rebuild's %d", ripple.TuplesTouched, complete.TuplesTouched)
	}
}

// Property: both folds give identical answers under random
// interleavings of inserts, deletes, and range queries.
func TestQuickUpdateStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(300)
		base := make([]int64, n)
		for i := range base {
			base[i] = rng.Int63n(1000)
		}
		a := NewColumn("a", base, WithFold(FoldRebuild))
		b := NewColumn("b", base, WithFold(FoldRipple))

		for step := 0; step < 120; step++ {
			switch rng.Intn(5) {
			case 0:
				v := rng.Int63n(1000)
				a.Insert(v)
				b.Insert(v)
			case 1:
				oid := bat.OID(rng.Intn(n + step))
				da := a.Delete(oid)
				db := b.Delete(oid)
				if da != db {
					return false
				}
			default:
				lo := rng.Int63n(1000)
				hi := lo + rng.Int63n(300)
				ca := a.Count(lo, hi, true, true)
				cb := b.Count(lo, hi, true, true)
				if ca != cb {
					return false
				}
				if a.Verify() != nil || b.Verify() != nil {
					return false
				}
			}
		}
		// Final state identical by OID.
		am, bm := a.ByOID(), b.ByOID()
		if len(am) != len(bm) {
			return false
		}
		for oid, v := range am {
			if bm[oid] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRippleIntoEmptyPiece(t *testing.T) {
	// Build adjacent cuts with an empty piece between them: point query
	// on an absent value creates two cuts at the same position.
	vals := []int64{10, 30, 50, 70}
	c := NewColumn("a", vals, WithFold(FoldRipple))
	if got := c.Count(40, 40, true, true); got != 0 {
		t.Fatalf("point query on absent value = %d", got)
	}
	// Inserting exactly 40 must land in (and fill) the empty piece.
	c.Insert(40)
	checkView(t, c.Select(40, 40, true, true), []int64{40})
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	checkView(t, c.Select(0, 100, true, true), []int64{10, 30, 40, 50, 70})
}

func TestRippleStatsCounted(t *testing.T) {
	c := NewColumn("a", []int64{5, 1, 9, 3, 7}, WithFold(FoldRipple))
	c.Select(2, 6, true, true)
	moved := c.Stats().TuplesMoved
	c.Insert(4)
	c.Count(0, 10, true, true) // triggers the ripple
	s := c.Stats()
	if s.TuplesMoved <= moved {
		t.Fatal("ripple insert moved no tuples")
	}
	if s.Consolidations != 1 {
		t.Fatalf("consolidations = %d", s.Consolidations)
	}
}
