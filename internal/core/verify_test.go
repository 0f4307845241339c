package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestVerifyCutsMatchesQuadratic holds the one-pass verifier against the
// per-cut scan it replaced, on cracked and rippled columns and on the
// same states corrupted one way at a time: whatever the quadratic check
// rejects the linear one must reject, and on an index's own value-ordered
// cut list the two agree exactly.
func TestVerifyCutsMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rejected := 0
	for round := 0; round < 300; round++ {
		n := 20 + rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(100)
		}
		c := NewColumn("a", vals, WithFold(FoldRipple))
		for q := 0; q < 1+rng.Intn(12); q++ {
			lo := rng.Int63n(110) - 5
			c.Select(lo, lo+rng.Int63n(30), rng.Intn(2) == 0, rng.Intn(2) == 0)
			if rng.Intn(3) == 0 {
				c.Insert(rng.Int63n(100))
			}
		}
		c.Count(0, 100, true, true)
		state, cuts := append([]int64(nil), c.vals...), c.idx.Cuts()
		if err := VerifyCuts(state, cuts); err != nil {
			t.Fatalf("round %d: a live column fails the linear check: %v", round, err)
		}
		if err := verifyQuadratic(state, cuts); err != nil {
			t.Fatalf("round %d: a live column fails the quadratic check: %v", round, err)
		}
		if len(cuts) == 0 {
			continue
		}
		for trial := 0; trial < 8; trial++ {
			v, cs := append([]int64(nil), state...), append([]Cut(nil), cuts...)
			at := rng.Intn(len(cs))
			switch rng.Intn(4) {
			case 0: // an element teleports
				v[rng.Intn(n)] = rng.Int63n(120) - 10
			case 1: // two elements trade places
				i, j := rng.Intn(n), rng.Intn(n)
				v[i], v[j] = v[j], v[i]
			case 2: // a cut slides
				cs[at].Pos += rng.Intn(7) - 3
			case 3: // a cut changes its mind about its value
				cs[at].Val += rng.Int63n(9) - 4
			}
			ordered := true
			for i := 1; i < len(cs); i++ {
				if cs[i-1].Val >= cs[i].Val {
					ordered = false
				}
			}
			quad, lin := verifyQuadratic(v, cs), VerifyCuts(v, cs)
			if quad != nil && lin == nil {
				t.Fatalf("round %d: the linear check accepts what the quadratic rejects (%v)\nvals %v\ncuts %v", round, quad, v, cs)
			}
			if ordered && quad == nil && lin != nil {
				t.Fatalf("round %d: the linear check rejects a valid value-ordered state: %v\nvals %v\ncuts %v", round, lin, v, cs)
			}
			if lin != nil {
				rejected++
			}
		}
	}
	if rejected < 500 {
		t.Fatalf("only %d corrupted states were rejected: the corruptions are not biting", rejected)
	}
}

// TestIndexFromSorted: the O(p) build holds what p inserts would give —
// same cuts, leaves within bounds, searchable — and refuses input out of
// value order.
func TestIndexFromSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, p := range []int{0, 1, 2, 3, 7, 8, 100, 1000, 4097} {
		ref := &Index{}
		for ref.Len() < p {
			ref.Insert(rng.Int63n(int64(4*p+1)), rng.Intn(1000))
		}
		cuts := ref.Cuts()
		ix, err := IndexFromSorted(cuts)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != p || len(ix.Cuts()) != p {
			t.Fatalf("p=%d: built index has %d cuts", p, ix.Len())
		}
		if err := ix.check(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, c := range cuts {
			if pos, ok := ix.Find(c.Val); !ok || pos != c.Pos || ix.Cuts()[i] != c {
				t.Fatalf("p=%d: cut %v not found intact", p, c)
			}
		}
		// The built index keeps working under inserts and deletes.
		ix.Insert(-1, 0)
		if len(cuts) > 0 {
			ix.Delete(cuts[p/2].Val)
		}
		if err := ix.check(); err != nil {
			t.Fatalf("p=%d after one insert and one delete: %v", p, err)
		}
		if got := ix.Len(); got != p+1-min(p, 1) {
			t.Fatalf("p=%d: %d cuts after one insert and one delete", p, got)
		}
		if p > 1 {
			cuts[0], cuts[1] = cuts[1], cuts[0]
			if _, err := IndexFromSorted(cuts); err == nil {
				t.Fatalf("p=%d: out-of-order cuts accepted", p)
			}
			cuts[1] = cuts[0]
			if _, err := IndexFromSorted(cuts); err == nil {
				t.Fatalf("p=%d: duplicate cuts accepted", p)
			}
		}
	}
}

// verifyQuadratic is the verifier Column.Verify replaced, kept as its
// oracle: every element is checked against every cut, O(n · p).
func verifyQuadratic(vals []int64, cuts []Cut) error {
	prevPos := 0
	for i, cut := range cuts {
		if cut.Pos < prevPos || cut.Pos > len(vals) {
			return fmt.Errorf("cut %d/%v at position %d out of order (prev %d, n %d)", i, cut, cut.Pos, prevPos, len(vals))
		}
		prevPos = cut.Pos
		for p, v := range vals {
			if left := p < cut.Pos; left != (v < cut.Val) {
				return fmt.Errorf("vals[%d]=%d on the wrong side of cut %v", p, v, cut)
			}
		}
	}
	return nil
}
