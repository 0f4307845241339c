package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The crack kernels with payload vectors riding along. alignedColumn
// builds a column whose payload p holds key*10+p for every tuple, so a
// swap that leaves a payload behind is detectable per element.
func alignedColumn(t *testing.T, n, npays int, seed int64) *Column {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1000)
	}
	c := NewColumn("t.k", keys)
	for p := 0; p < npays; p++ {
		src := make([]int64, n)
		for i, k := range keys {
			src[i] = k*10 + int64(p)
		}
		if built, err := c.attachPayload(fmt.Sprintf("p%d", p), src, 1); err != nil || !built {
			t.Fatalf("attach p%d: built %v, err %v", p, built, err)
		}
	}
	return c
}

func checkAligned(t *testing.T, c *Column) {
	t.Helper()
	for p, pv := range c.pays {
		if len(pv.vals) != len(c.vals) {
			t.Fatalf("payload %d has %d values, the column %d", p, len(pv.vals), len(c.vals))
		}
		for i, k := range c.vals {
			if pv.vals[i] != k*10+int64(p) {
				t.Fatalf("pays[%d][%d]=%d out of lockstep with key %d", p, i, pv.vals[i], k)
			}
		}
	}
	seen := make([]bool, len(c.oids))
	for _, o := range c.oids {
		if int(o) >= len(seen) || seen[o] {
			t.Fatalf("oid vector no longer a permutation (oid %d)", o)
		}
		seen[o] = true
	}
}

func TestAlignedCrackInTwo(t *testing.T) {
	for _, npays := range []int{0, 1, 3} {
		c := alignedColumn(t, 500, npays, 1)
		pos := c.crackInTwo(0, len(c.vals), 400)
		if touched := c.Stats().TuplesTouched; touched != 500 {
			t.Fatalf("touched %d, want 500", touched)
		}
		for i, v := range c.vals {
			if i < pos && v >= 400 || i >= pos && v < 400 {
				t.Fatalf("keys[%d]=%d on wrong side of cut <400@%d", i, v, pos)
			}
		}
		checkAligned(t, c)
		// A cut inside the right piece: <701 keeps 700 on its left.
		pos2 := c.crackInTwo(pos, len(c.vals), 701)
		for i := pos; i < len(c.vals); i++ {
			if i < pos2 && c.vals[i] > 700 || i >= pos2 && c.vals[i] <= 700 {
				t.Fatalf("keys[%d]=%d on wrong side of cut <701@%d", i, c.vals[i], pos2)
			}
		}
		checkAligned(t, c)
	}
}

func TestAlignedCrackInThree(t *testing.T) {
	for _, npays := range []int{0, 2} {
		c := alignedColumn(t, 800, npays, 3)
		// (300, 600]: lower cut <301, upper cut <601.
		m1, m2 := c.crackInThree(0, len(c.vals), 301, 601)
		if touched := c.Stats().TuplesTouched; touched != 800 {
			t.Fatalf("touched %d, want 800", touched)
		}
		for i, v := range c.vals {
			switch {
			case i < m1 && v > 300:
				t.Fatalf("keys[%d]=%d in left piece of (300,600]", i, v)
			case i >= m1 && i < m2 && (v <= 300 || v > 600):
				t.Fatalf("keys[%d]=%d in answer window of (300,600]", i, v)
			case i >= m2 && v <= 600:
				t.Fatalf("keys[%d]=%d in right piece of (300,600]", i, v)
			}
		}
		checkAligned(t, c)
	}
}

// TestAlignedMatchesColumnKernel pins that payload vectors change nothing
// about how a column cracks: the same query stream leaves a column with
// payloads and one without in the same physical order, cut for cut.
func TestAlignedMatchesColumnKernel(t *testing.T) {
	bare, carrying := alignedColumn(t, 1000, 0, 5), alignedColumn(t, 1000, 2, 5)
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 40; q++ {
		lo := rng.Int63n(900)
		hi := lo + rng.Int63n(200)
		a, b := bare.Select(lo, hi, true, q%2 == 0), carrying.Select(lo, hi, true, q%2 == 0)
		if a.Lo != b.Lo || a.Hi != b.Hi {
			t.Fatalf("query %d: window [%d,%d) with payloads, [%d,%d) without", q, b.Lo, b.Hi, a.Lo, a.Hi)
		}
	}
	if !slices.Equal(bare.vals, carrying.vals) || !slices.Equal(bare.oids, carrying.oids) {
		t.Fatal("payload vectors changed the column's physical order")
	}
	if bare.idx.String() != carrying.idx.String() {
		t.Fatal("payload vectors changed the column's cut set")
	}
	checkAligned(t, carrying)
}
