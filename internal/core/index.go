// Package core implements the paper's primary contribution: database
// cracking. A cracker column is a copy of an attribute BAT that is
// physically reorganized a little more by every query, together with a
// cracker index — the in-memory "decorated interval tree" (paper §5.2)
// that records, for each piece, its value bounds, size, and location in
// the store.
//
// The package provides the four cracker operators of §3.1:
//
//   - Ξ (selection cracking): Column.Select and friends,
//   - Ψ (projection cracking): PsiCrack,
//   - ^ (join cracking): JoinCrack,
//   - Ω (group cracking): GroupCrack,
//
// plus the lineage administration of §3.2 (Figures 5 and 6) and a
// pending-update extension for the volatility question §7 leaves open.
package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// A cut is the boundary knowledge one crack step leaves behind. The cut
// val at position pos means: every element before pos is < val and every
// element from pos on is >= val. Cuts are ordered by value, matching the
// element order they induce.
//
// Cracking never moves a cut position: it only reorders elements within
// a piece, never across an existing cut. Folding pending updates does —
// an insert below a cut shifts it right, a delete shifts it left — and
// rewrites the positions in place through descend/ascend.

// Index is the cracker index over one column — the paper's "decorated
// interval tree" (§5.2) laid out flat, in two parts. The ordered part
// keeps the cut values in short sorted leaves of at most leafCap entries
// under one array of each leaf's first value: a neighbour search is a
// binary search over that array and one inside a leaf, and insertion
// and deletion shift entries within one leaf, so they cost
// O(leafCap + p/leafCap). The positions live only in slots, an
// open-addressed table keyed by the cut's value: Find — the whole of a
// converged lookup — is one hash probe, where a search of the ordered
// values is two dependent binary searches that mispredict and miss the
// cache at every step. Neither part holds pointers, so the garbage
// collector does not walk the cuts. A cut costs 8 bytes of leaf and 16
// of slot, about 41 live heap bytes with both parts' slack
// (TestIndexBuildBudget).
//
// Index is not safe for concurrent use; Column serializes access. Reads
// (Find, findGroup, Neighbours, bracket, Cuts) change nothing, so
// concurrent readers under a read lock are safe.
type Index struct {
	leaves [][]int64 // runs of cut values in ascending order
	topV   []int64   // topV[i]: the first value of leaves[i]
	size   int

	// slots holds every cut's position under linear probing: a power of
	// two of them, at most slotLoadNum/slotLoadDen full; shift is 64 -
	// log2(len(slots)).
	slots []slot
	shift uint

	// changed notes that a cut was inserted, deleted or reset since the
	// column's last TakeState: the next image element carries the cut
	// values only then. A fold that shifts positions does not count, since
	// a restore counts positions from the values.
	changed bool
}

// leafCap bounds a leaf. A leaf past it splits in half; a leaf below
// leafCap/4 merges into its neighbour (and the pair splits again if that
// overfills it), so every leaf but a lone one holds at least leafCap/4
// cuts.
const leafCap = 64

// A slot of the position table holds one cut: its value, and in w its
// position above an occupied bit. A zero w is an empty slot.
type slot struct {
	val int64
	w   uint64
}

func newSlot(val int64, pos int) slot { return slot{val, uint64(pos)<<1 | 1} }

func (s slot) pos() int { return int(s.w >> 1) }

// The table doubles before it passes slotLoadNum/slotLoadDen full, and
// never holds fewer than minSlots slots.
const (
	slotLoadNum, slotLoadDen = 3, 4
	minSlots                 = 8
)

// home is the slot a probe for val starts at: Fibonacci hashing, the top
// bits of the value times 2^64/φ.
func (ix *Index) home(val int64) int {
	return int(uint64(val) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// probe returns the slot holding val, or with found=false the empty slot
// that ends its probe run. The table must have slots.
func (ix *Index) probe(val int64) (i int, found bool) {
	return ix.probeFrom(ix.home(val), val)
}

// probeFrom is probe resumed at slot i of the value's probe run.
func (ix *Index) probeFrom(i int, val int64) (int, bool) {
	mask := len(ix.slots) - 1
	for ; ; i = (i + 1) & mask {
		switch s := &ix.slots[i]; {
		case s.w == 0:
			return i, false
		case s.val == val:
			return i, true
		}
	}
}

// cutAt returns the registered cut val with its position.
func (ix *Index) cutAt(val int64) Cut {
	i, _ := ix.probe(val)
	return Cut{Val: val, Pos: ix.slots[i].pos()}
}

// slotsFor returns the table size that holds n cuts.
func slotsFor(n int) int {
	k := minSlots
	for k*slotLoadNum < n*slotLoadDen {
		k *= 2
	}
	return k
}

// newSlots makes an empty table of k slots, a power of two.
func (ix *Index) newSlots(k int) {
	ix.slots, ix.shift = make([]slot, k), uint(64-bits.TrailingZeros(uint(k)))
}

// place stores the slot of a cut that is not in the table yet.
func (ix *Index) place(s slot) {
	i, _ := ix.probe(s.val)
	ix.slots[i] = s
}

// unplace empties slot i by backward shift: each later entry of the probe
// run whose home does not lie after i moves back into the hole, so every
// remaining probe run stays unbroken and no tombstone is left.
func (ix *Index) unplace(i int) {
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j].w != 0; j = (j + 1) & mask {
		s := ix.slots[j]
		if h := ix.home(s.val); (j-h)&mask >= (j-i)&mask {
			ix.slots[i], i = s, j
		}
	}
	ix.slots[i] = slot{}
}

// grow doubles the table and re-places every cut.
func (ix *Index) grow() {
	old := ix.slots
	ix.newSlots(2 * len(old))
	for _, s := range old {
		if s.w != 0 {
			ix.place(s)
		}
	}
}

// IndexFromSorted builds the index over cuts already in strictly
// ascending value order — what an image stores — in O(p): it deals them
// evenly into leaves about three quarters full, out of one slab with room
// for every leaf to reach leafCap, and places them in a table sized once
// for them. Input out of value order is rejected; positions are the
// caller's to set (placeCuts).
func IndexFromSorted(cuts []Cut) (*Index, error) {
	if err := valueOrdered(cuts); err != nil {
		return nil, err
	}
	k := (len(cuts) + leafCap*3/4 - 1) / (leafCap * 3 / 4)
	ix := &Index{leaves: make([][]int64, k), topV: make([]int64, k), size: len(cuts)}
	ix.newSlots(slotsFor(len(cuts)))
	const stride = leafCap + 1
	vals := make([]int64, k*stride)
	for li := range ix.leaves {
		lo, hi, s := li*len(cuts)/k, (li+1)*len(cuts)/k, li*stride
		l := vals[s : s : s+stride]
		for _, c := range cuts[lo:hi] {
			l = append(l, c.Val)
			ix.place(newSlot(c.Val, c.Pos))
		}
		ix.leaves[li] = l
		ix.topV[li] = cuts[lo].Val
	}
	return ix, nil
}

// valueOrdered refuses cuts that are not strictly ascending by value.
func valueOrdered(cuts []Cut) error {
	for i := 1; i < len(cuts); i++ {
		if p, c := cuts[i-1], cuts[i]; p.Val >= c.Val {
			return fmt.Errorf("core: cuts %d/%d (%v, %v) out of value order", i-1, i, p, c)
		}
	}
	return nil
}

// upto returns how many values of the ascending vs are <= val.
func upto(vs []int64, val int64) int {
	lo, hi := 0, len(vs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vs[m] <= val {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// locate returns the leaf val falls in and how many of its cuts are <=
// val, so slot j-1 holds the floor when j > 0. A value below every cut
// falls in leaf 0 with j = 0; so does any value of an empty index.
func (ix *Index) locate(val int64) (li, j int) {
	li = max(upto(ix.topV, val)-1, 0)
	if li < len(ix.leaves) {
		j = upto(ix.leaves[li], val)
	}
	return li, j
}

// Len returns the number of registered cuts.
func (ix *Index) Len() int { return ix.size }

// Reset drops all cuts.
func (ix *Index) Reset() {
	*ix = Index{changed: ix.changed || ix.size > 0}
}

// Find returns the position of the cut val, if registered.
func (ix *Index) Find(val int64) (pos int, ok bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	i, ok := ix.probe(val)
	return ix.slots[i].pos(), ok
}

// findGroup looks up every value of vals, at most 64, as Find would, into
// pos: the cut's position, or -1 when the value is not registered. It
// reads every value's home slot before it follows any probe run. Those
// reads do not depend on each other, so their cache misses overlap, where
// one Find after another waits out each miss in turn (group prefetching).
// A home slot that holds its value or is empty settles the value;
// otherwise pos keeps the slot until the second pass resumes the value's
// run after it.
func (ix *Index) findGroup(vals []int64, pos []int) {
	pos = pos[:len(vals)]
	if len(ix.slots) == 0 {
		for k := range pos {
			pos[k] = -1
		}
		return
	}
	var runs uint64 // values whose home slot holds another cut
	for k, val := range vals {
		i := ix.home(val)
		switch s := &ix.slots[i]; {
		case s.w == 0:
			pos[k] = -1
		case s.val == val:
			pos[k] = s.pos()
		default:
			pos[k], runs = i, runs|1<<k
		}
	}
	mask := len(ix.slots) - 1
	for ; runs != 0; runs &= runs - 1 {
		k := bits.TrailingZeros64(runs)
		i, found := ix.probeFrom((pos[k]+1)&mask, vals[k])
		pos[k] = -1
		if found {
			pos[k] = ix.slots[i].pos()
		}
	}
}

// Neighbours returns the cuts around val in one search of the ordered
// values: floor, the greatest cut <= val, and ceil, the smallest cut >
// val, each with whether it exists.
func (ix *Index) Neighbours(val int64) (floor Cut, floorOK bool, ceil Cut, ceilOK bool) {
	li, j := ix.locate(val)
	if j > 0 {
		floor, floorOK = ix.cutAt(ix.leaves[li][j-1]), true
	}
	if li < len(ix.leaves) && j == len(ix.leaves[li]) { // the ceiling opens the next leaf
		li, j = li+1, 0
	}
	if li < len(ix.leaves) {
		ceil, ceilOK = ix.cutAt(ix.leaves[li][j]), true
	}
	return floor, floorOK, ceil, ceilOK
}

// bracket returns the positions of the nearest cuts at or below and at
// or above val — one cut, twice, when val itself is registered.
func (ix *Index) bracket(val int64) (below int, belowOK bool, above int, aboveOK bool) {
	floor, belowOK, ceil, aboveOK := ix.Neighbours(val)
	if belowOK && floor.Val == val {
		return floor.Pos, true, floor.Pos, true
	}
	return floor.Pos, belowOK, ceil.Pos, aboveOK
}

// Insert registers a new cut. Inserting an existing value overwrites its
// position (which, by the cut invariant, is always the same value).
func (ix *Index) Insert(val int64, pos int) {
	if len(ix.leaves) == 0 {
		ix.leaves, ix.topV = [][]int64{nil}, []int64{val}
		ix.newSlots(minSlots)
	}
	if i, found := ix.probe(val); found {
		ix.slots[i] = newSlot(val, pos)
		return
	}
	if (ix.size+1)*slotLoadDen > len(ix.slots)*slotLoadNum {
		ix.grow()
	}
	ix.place(newSlot(val, pos))
	li, j := ix.locate(val)
	l := &ix.leaves[li]
	*l = slices.Insert(*l, j, val)
	ix.size++
	ix.changed = true
	if j == 0 {
		ix.topV[li] = val
	}
	if len(*l) > leafCap {
		ix.split(li)
	}
}

// split moves the upper half of leaf li into a new leaf after it.
func (ix *Index) split(li int) {
	l := &ix.leaves[li]
	h := len(*l) / 2
	r := append(make([]int64, 0, leafCap+1), (*l)[h:]...)
	*l = (*l)[:h]
	ix.leaves = slices.Insert(ix.leaves, li+1, r)
	ix.topV = slices.Insert(ix.topV, li+1, r[0])
}

// Delete removes a cut (a semijoin drops the cuts inside the piece it
// splits). It reports whether the cut existed.
func (ix *Index) Delete(val int64) bool {
	if len(ix.slots) == 0 {
		return false
	}
	i, found := ix.probe(val)
	if !found {
		return false
	}
	ix.unplace(i)
	li, j := ix.locate(val)
	l := &ix.leaves[li]
	*l = slices.Delete(*l, j-1, j)
	ix.size--
	ix.changed = true
	switch {
	case ix.size == 0:
		ix.leaves, ix.topV, ix.slots = nil, nil, nil
	case len(*l) < leafCap/4 && len(ix.leaves) > 1:
		ix.merge(max(li-1, 0))
	case j == 1:
		ix.topV[li] = (*l)[0]
	}
	return true
}

// merge appends leaf li+1 to leaf li — one of them has fallen below
// leafCap/4 — and splits the result again if it overfills.
func (ix *Index) merge(li int) {
	l := &ix.leaves[li]
	*l = append(*l, ix.leaves[li+1]...)
	ix.topV[li] = (*l)[0]
	ix.leaves = slices.Delete(ix.leaves, li+1, li+2)
	ix.topV = slices.Delete(ix.topV, li+1, li+2)
	if len(ix.leaves[li]) > leafCap {
		ix.split(li)
	}
}

// descend visits the cuts from the greatest value down, ascend from the
// smallest up, until visit returns more=false. visit also returns the
// position the cut now has: the update fold shifts the cuts it crosses
// in the same walk that finds them, without copying the cut list. A
// walk that stops after k cuts costs O(k).
func (ix *Index) descend(visit func(c Cut) (pos int, more bool)) {
	for li := len(ix.leaves) - 1; li >= 0; li-- {
		for j := len(ix.leaves[li]) - 1; j >= 0; j-- {
			if !ix.rewrite(ix.leaves[li][j], visit) {
				return
			}
		}
	}
}

func (ix *Index) ascend(visit func(c Cut) (pos int, more bool)) {
	for _, l := range ix.leaves {
		for _, v := range l {
			if !ix.rewrite(v, visit) {
				return
			}
		}
	}
}

// rewrite hands the cut val to a walk's visit and stores the position it
// returns in the cut's table slot.
func (ix *Index) rewrite(val int64, visit func(c Cut) (pos int, more bool)) bool {
	i, _ := ix.probe(val)
	pos, more := visit(Cut{Val: val, Pos: ix.slots[i].pos()})
	ix.slots[i] = newSlot(val, pos)
	return more
}

// Cut is the exported form of one registered boundary: the elements
// before Pos are < Val, the rest >= Val.
type Cut struct {
	Val int64
	Pos int
}

// Cuts returns all cuts in value order.
func (ix *Index) Cuts() []Cut {
	out := make([]Cut, 0, ix.size)
	for _, l := range ix.leaves {
		for _, v := range l {
			out = append(out, ix.cutAt(v))
		}
	}
	return out
}

// Pieces returns the piece position boundaries induced by the cuts over a
// column of n elements: a sorted list of [lo, hi) pairs tiling [0, n).
func (ix *Index) Pieces(n int) [][2]int {
	cuts := ix.Cuts()
	out := make([][2]int, 0, len(cuts)+1)
	lo := 0
	for _, c := range cuts {
		if c.Pos > lo { // collapse duplicate and boundary positions
			out = append(out, [2]int{lo, c.Pos})
			lo = c.Pos
		}
	}
	if lo < n || n == 0 && len(out) == 0 {
		out = append(out, [2]int{lo, n})
	}
	return out
}

// String renders the cuts for diagnostics.
func (ix *Index) String() string {
	s := "index{"
	for i, c := range ix.Cuts() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("<%d@%d", c.Val, c.Pos)
	}
	return s + "}"
}
