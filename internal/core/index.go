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
// (val, incl=false) at position pos means: every element before pos is
// < val and every element from pos on is >= val. With incl=true the
// partition is <= val / > val. Cuts are totally ordered by (val, incl)
// with incl=false sorting before incl=true, matching the element order
// they induce.
//
// Cracking never moves a cut position: it only reorders elements within
// a piece, never across an existing cut. Folding pending updates does —
// an insert below a cut shifts it right, a delete shifts it left — and
// rewrites the positions in place through descend/ascend.

// Index is the cracker index over one column — the paper's "decorated
// interval tree" (§5.2) laid out flat, in two parts. The ordered part
// keeps the cut keys (value, inclusive) in short sorted leaves of at most
// leafCap entries under one array of each leaf's first key: a neighbour
// search is a binary search over that array and one inside a leaf, and
// insertion and deletion shift entries within one leaf, so they cost
// O(leafCap + p/leafCap). The positions live only in slots, an
// open-addressed table keyed by the cut: Find — the whole of a
// converged lookup — is one hash probe, where a search of the ordered
// keys is two dependent binary searches that mispredict and miss the
// cache at every step. Neither part holds pointers, so the garbage
// collector does not walk the cuts. A cut costs 9 bytes of leaf and 16
// of slot, about 44 live heap bytes with both parts' slack
// (TestIndexBuildBudget).
//
// Index is not safe for concurrent use; Column serializes access. Reads
// (Find, Floor, Ceil, bracket, Cuts) change nothing, so concurrent readers
// under a read lock are safe.
type Index struct {
	leaves []leaf
	topV   []int64 // topV[i], topI[i]: the first key of leaves[i]
	topI   []bool
	size   int

	// slots holds every cut's position under linear probing: a power of
	// two of them, at most slotLoadNum/slotLoadDen full; shift is 64 -
	// log2(len(slots)).
	slots []slot
	shift uint

	// changed notes that a cut was inserted, deleted or reset since the
	// column's last TakeState: the next image element carries the cut
	// keys only then. A fold that shifts positions does not count, since
	// a restore counts positions from the values.
	changed bool
}

// leafCap bounds a leaf. A leaf past it splits in half; a leaf below
// leafCap/4 merges into its neighbour (and the pair splits again if that
// overfills it), so every leaf but a lone one holds at least leafCap/4
// cuts.
const leafCap = 64

// A leaf is a run of cut keys in ascending order, one vector per field.
type leaf struct {
	vals []int64
	incl []bool
}

// A slot of the position table holds one cut: its value, and in w its
// position above two tag bits, inclusive (2) and occupied (1). A zero w
// is an empty slot.
type slot struct {
	val int64
	w   uint64
}

func newSlot(val int64, incl bool, pos int) slot { return slot{val, uint64(pos)<<2 | tag(incl)} }

func (s slot) incl() bool { return s.w&2 != 0 }
func (s slot) pos() int   { return int(s.w >> 2) }

// The table doubles before it passes slotLoadNum/slotLoadDen full, and
// never holds fewer than minSlots slots.
const (
	slotLoadNum, slotLoadDen = 3, 4
	minSlots                 = 8
)

// tag is a slot's w below the position for a cut of the given incl.
func tag(incl bool) uint64 {
	if incl {
		return 3
	}
	return 1
}

// home is the slot a probe for (val, incl) starts at: Fibonacci hashing,
// the top bits of the key times 2^64/φ.
func (ix *Index) home(val int64, incl bool) int {
	return int((uint64(val)<<1 | tag(incl)>>1) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// probe returns the slot holding (val, incl), or with found=false the
// empty slot that ends its probe run. The table must have slots.
func (ix *Index) probe(val int64, incl bool) (i int, found bool) {
	t, mask := tag(incl), len(ix.slots)-1
	for i = ix.home(val, incl); ; i = (i + 1) & mask {
		switch s := &ix.slots[i]; {
		case s.w == 0:
			return i, false
		case s.val == val && s.w&3 == t:
			return i, true
		}
	}
}

// posOf returns the position of a registered cut.
func (ix *Index) posOf(val int64, incl bool) int {
	i, _ := ix.probe(val, incl)
	return ix.slots[i].pos()
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
	i, _ := ix.probe(s.val, s.incl())
	ix.slots[i] = s
}

// unplace empties slot i by backward shift: each later entry of the probe
// run whose home does not lie after i moves back into the hole, so every
// remaining probe run stays unbroken and no tombstone is left.
func (ix *Index) unplace(i int) {
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j].w != 0; j = (j + 1) & mask {
		s := ix.slots[j]
		if h := ix.home(s.val, s.incl()); (j-h)&mask >= (j-i)&mask {
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
// ascending key order — what an image stores — in O(p): it deals them
// evenly into leaves about three quarters full, one slab per field with
// room for every leaf to reach leafCap, and places them in a table sized
// once for them. Input out of key order is rejected; positions are the
// caller's to set (placeCuts).
func IndexFromSorted(cuts []Cut) (*Index, error) {
	if err := keyOrdered(cuts); err != nil {
		return nil, err
	}
	k := (len(cuts) + leafCap*3/4 - 1) / (leafCap * 3 / 4)
	ix := &Index{leaves: make([]leaf, k), topV: make([]int64, k), topI: make([]bool, k), size: len(cuts)}
	ix.newSlots(slotsFor(len(cuts)))
	const stride = leafCap + 1
	vals, incl := make([]int64, k*stride), make([]bool, k*stride)
	for li := range ix.leaves {
		lo, hi, s := li*len(cuts)/k, (li+1)*len(cuts)/k, li*stride
		l := leaf{vals[s : s : s+stride], incl[s : s : s+stride]}
		for _, c := range cuts[lo:hi] {
			l.vals, l.incl = append(l.vals, c.Val), append(l.incl, c.Incl)
			ix.place(newSlot(c.Val, c.Incl, c.Pos))
		}
		ix.leaves[li] = l
		ix.topV[li], ix.topI[li] = cuts[lo].Val, cuts[lo].Incl
	}
	return ix, nil
}

// keyOrdered refuses cuts that are not strictly ascending by key.
func keyOrdered(cuts []Cut) error {
	for i := 1; i < len(cuts); i++ {
		if p, c := cuts[i-1], cuts[i]; cmpCut(p.Val, p.Incl, c.Val, c.Incl) >= 0 {
			return fmt.Errorf("core: cuts %d/%d (%v, %v) out of key order", i-1, i, p, c)
		}
	}
	return nil
}

// cmpCut orders cuts by (value, inclusive) with false < true.
func cmpCut(v1 int64, i1 bool, v2 int64, i2 bool) int {
	switch {
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	case i1 == i2:
		return 0
	case !i1:
		return -1
	default:
		return 1
	}
}

// upto returns how many keys of the ascending (vs, is) are <= (val, incl).
func upto(vs []int64, is []bool, val int64, incl bool) int {
	lo, hi := 0, len(vs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vs[m] < val || vs[m] == val && (incl || !is[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// locate returns the leaf the key (val, incl) falls in and how many of its
// cuts are <= the key, so slot j-1 holds the floor when j > 0. A key below
// every cut falls in leaf 0 with j = 0; so does any key of an empty index.
func (ix *Index) locate(val int64, incl bool) (li, j int) {
	li = max(upto(ix.topV, ix.topI, val, incl)-1, 0)
	if li < len(ix.leaves) {
		l := &ix.leaves[li]
		j = upto(l.vals, l.incl, val, incl)
	}
	return li, j
}

// at returns the cut in slot j of leaf li, or the next leaf's first when
// j is past the end.
func (ix *Index) at(li, j int) (cutVal int64, cutIncl bool, pos int, ok bool) {
	if li < len(ix.leaves) && j == len(ix.leaves[li].vals) {
		li, j = li+1, 0
	}
	if li >= len(ix.leaves) {
		return 0, false, 0, false
	}
	l := &ix.leaves[li]
	return l.vals[j], l.incl[j], ix.posOf(l.vals[j], l.incl[j]), true
}

// Len returns the number of registered cuts.
func (ix *Index) Len() int { return ix.size }

// Reset drops all cuts.
func (ix *Index) Reset() {
	*ix = Index{changed: ix.changed || ix.size > 0}
}

// Find returns the position of the exact cut (val, incl), if registered.
func (ix *Index) Find(val int64, incl bool) (pos int, ok bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	i, ok := ix.probe(val, incl)
	return ix.slots[i].pos(), ok
}

// Floor returns the greatest cut with key <= (val, incl).
func (ix *Index) Floor(val int64, incl bool) (cutVal int64, cutIncl bool, pos int, ok bool) {
	li, j := ix.locate(val, incl)
	if j == 0 {
		return 0, false, 0, false
	}
	return ix.at(li, j-1)
}

// Ceil returns the smallest cut with key > (val, incl).
func (ix *Index) Ceil(val int64, incl bool) (cutVal int64, cutIncl bool, pos int, ok bool) {
	return ix.at(ix.locate(val, incl))
}

// bracket returns the positions of the nearest cuts at or below and at
// or above the key (val, incl) — one cut, twice, when the key itself is
// registered.
func (ix *Index) bracket(val int64, incl bool) (below int, belowOK bool, above int, aboveOK bool) {
	if pos, ok := ix.Find(val, incl); ok {
		return pos, true, pos, true
	}
	li, j := ix.locate(val, incl)
	if j > 0 {
		l := &ix.leaves[li]
		below, belowOK = ix.posOf(l.vals[j-1], l.incl[j-1]), true
	}
	_, _, above, aboveOK = ix.at(li, j)
	return below, belowOK, above, aboveOK
}

// Insert registers a new cut. Inserting an existing key overwrites its
// position (which, by the cut invariant, is always the same value).
func (ix *Index) Insert(val int64, incl bool, pos int) {
	if len(ix.leaves) == 0 {
		ix.leaves, ix.topV, ix.topI = []leaf{{}}, []int64{val}, []bool{incl}
		ix.newSlots(minSlots)
	}
	if i, found := ix.probe(val, incl); found {
		ix.slots[i] = newSlot(val, incl, pos)
		return
	}
	if (ix.size+1)*slotLoadDen > len(ix.slots)*slotLoadNum {
		ix.grow()
	}
	ix.place(newSlot(val, incl, pos))
	li, j := ix.locate(val, incl)
	l := &ix.leaves[li]
	l.vals, l.incl = slices.Insert(l.vals, j, val), slices.Insert(l.incl, j, incl)
	ix.size++
	ix.changed = true
	if j == 0 {
		ix.topV[li], ix.topI[li] = val, incl
	}
	if len(l.vals) > leafCap {
		ix.split(li)
	}
}

// split moves the upper half of leaf li into a new leaf after it.
func (ix *Index) split(li int) {
	l := &ix.leaves[li]
	h := len(l.vals) / 2
	r := leaf{
		vals: append(make([]int64, 0, leafCap+1), l.vals[h:]...),
		incl: append(make([]bool, 0, leafCap+1), l.incl[h:]...),
	}
	l.vals, l.incl = l.vals[:h], l.incl[:h]
	ix.leaves = slices.Insert(ix.leaves, li+1, r)
	ix.topV, ix.topI = slices.Insert(ix.topV, li+1, r.vals[0]), slices.Insert(ix.topI, li+1, r.incl[0])
}

// Delete removes a cut (a semijoin drops the cuts inside the piece it
// splits). It reports whether the key existed.
func (ix *Index) Delete(val int64, incl bool) bool {
	if len(ix.slots) == 0 {
		return false
	}
	i, found := ix.probe(val, incl)
	if !found {
		return false
	}
	ix.unplace(i)
	li, j := ix.locate(val, incl)
	l := &ix.leaves[li]
	l.vals, l.incl = slices.Delete(l.vals, j-1, j), slices.Delete(l.incl, j-1, j)
	ix.size--
	ix.changed = true
	switch {
	case ix.size == 0:
		ix.leaves, ix.topV, ix.topI, ix.slots = nil, nil, nil, nil
	case len(l.vals) < leafCap/4 && len(ix.leaves) > 1:
		ix.merge(max(li-1, 0))
	case j == 1:
		ix.topV[li], ix.topI[li] = l.vals[0], l.incl[0]
	}
	return true
}

// merge appends leaf li+1 to leaf li — one of them has fallen below
// leafCap/4 — and splits the result again if it overfills.
func (ix *Index) merge(li int) {
	l, r := &ix.leaves[li], ix.leaves[li+1]
	l.vals, l.incl = append(l.vals, r.vals...), append(l.incl, r.incl...)
	ix.topV[li], ix.topI[li] = l.vals[0], l.incl[0]
	ix.leaves = slices.Delete(ix.leaves, li+1, li+2)
	ix.topV, ix.topI = slices.Delete(ix.topV, li+1, li+2), slices.Delete(ix.topI, li+1, li+2)
	if len(ix.leaves[li].vals) > leafCap {
		ix.split(li)
	}
}

// descend visits the cuts from the greatest key down, ascend from the
// smallest up, until visit returns more=false. visit also returns the
// position the cut now has: the update fold shifts the cuts it crosses
// in the same walk that finds them, without copying the cut list. A
// walk that stops after k cuts costs O(k).
func (ix *Index) descend(visit func(c Cut) (pos int, more bool)) {
	for li := len(ix.leaves) - 1; li >= 0; li-- {
		for j := len(ix.leaves[li].vals) - 1; j >= 0; j-- {
			if !ix.rewrite(&ix.leaves[li], j, visit) {
				return
			}
		}
	}
}

func (ix *Index) ascend(visit func(c Cut) (pos int, more bool)) {
	for li := range ix.leaves {
		for j := range ix.leaves[li].vals {
			if !ix.rewrite(&ix.leaves[li], j, visit) {
				return
			}
		}
	}
}

// rewrite hands the cut in slot j of l to a walk's visit and stores the
// position it returns in the cut's table slot.
func (ix *Index) rewrite(l *leaf, j int, visit func(c Cut) (pos int, more bool)) bool {
	i, _ := ix.probe(l.vals[j], l.incl[j])
	s := ix.slots[i]
	pos, more := visit(Cut{Val: s.val, Incl: s.incl(), Pos: s.pos()})
	ix.slots[i] = newSlot(s.val, s.incl(), pos)
	return more
}

// Cut is the exported form of one registered boundary.
type Cut struct {
	Val  int64
	Incl bool
	Pos  int
}

// Cuts returns all cuts in key order.
func (ix *Index) Cuts() []Cut {
	out := make([]Cut, 0, ix.size)
	for _, l := range ix.leaves {
		for j := range l.vals {
			out = append(out, Cut{Val: l.vals[j], Incl: l.incl[j], Pos: ix.posOf(l.vals[j], l.incl[j])})
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
		op := "<"
		if c.Incl {
			op = "<="
		}
		s += fmt.Sprintf("%s%d@%d", op, c.Val, c.Pos)
	}
	return s + "}"
}
