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
// plus the lineage administration of §3.2 (Figures 5 and 6), piece fusion
// when the index outgrows its budget, and a pending-update extension for
// the volatility question §7 leaves open.
package core

import "fmt"

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

// Index is the cracker index over one column: an AVL tree of cuts keyed
// by (value, inclusive). Lookups, floor/ceiling navigation, insertion and
// deletion are O(log p) for p registered cuts.
//
// Index is not safe for concurrent use; Column serializes access.
type Index struct {
	root *inode
	size int

	// changed notes that a cut was inserted, deleted, shifted or reset
	// since the column's last TakeState: the next image element carries
	// the cut set only then.
	changed bool
}

// IndexFromSorted builds the index over cuts already in strictly
// ascending key order — what an image stores — in O(p): the midpoint of
// each range becomes its subtree's root, so the tree is balanced by
// construction and no insertion ever rebalances. Input out of key order
// is rejected; positions are the caller's to check (VerifyCuts).
func IndexFromSorted(cuts []Cut) (*Index, error) {
	for i := 1; i < len(cuts); i++ {
		if p, c := cuts[i-1], cuts[i]; cmpCut(p.Val, p.Incl, c.Val, c.Incl) >= 0 {
			return nil, fmt.Errorf("core: cuts %d/%d (%v, %v) out of key order", i-1, i, p, c)
		}
	}
	nodes := make([]inode, len(cuts)) // one slab, not p allocations
	var build func(lo, hi int) *inode
	build = func(lo, hi int) *inode {
		if lo >= hi {
			return nil
		}
		mid := int(uint(lo+hi) >> 1)
		n := &nodes[mid]
		*n = inode{val: cuts[mid].Val, incl: cuts[mid].Incl, pos: cuts[mid].Pos,
			left: build(lo, mid), right: build(mid+1, hi)}
		n.height = 1 + max(height(n.left), height(n.right))
		return n
	}
	return &Index{root: build(0, len(cuts)), size: len(cuts)}, nil
}

type inode struct {
	val    int64
	incl   bool
	pos    int
	left   *inode
	right  *inode
	height int
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

// Len returns the number of registered cuts.
func (ix *Index) Len() int { return ix.size }

// Reset drops all cuts.
func (ix *Index) Reset() {
	ix.changed = ix.changed || ix.size > 0
	ix.root, ix.size = nil, 0
}

// Find returns the position of the exact cut (val, incl), if registered.
func (ix *Index) Find(val int64, incl bool) (pos int, ok bool) {
	n := ix.root
	for n != nil {
		switch cmpCut(val, incl, n.val, n.incl) {
		case 0:
			return n.pos, true
		case -1:
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false
}

// Floor returns the greatest cut with key <= (val, incl).
func (ix *Index) Floor(val int64, incl bool) (cutVal int64, cutIncl bool, pos int, ok bool) {
	n := ix.root
	var best *inode
	for n != nil {
		if cmpCut(n.val, n.incl, val, incl) <= 0 {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		return 0, false, 0, false
	}
	return best.val, best.incl, best.pos, true
}

// Ceil returns the smallest cut with key > (val, incl).
func (ix *Index) Ceil(val int64, incl bool) (cutVal int64, cutIncl bool, pos int, ok bool) {
	n := ix.root
	var best *inode
	for n != nil {
		if cmpCut(n.val, n.incl, val, incl) > 0 {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return 0, false, 0, false
	}
	return best.val, best.incl, best.pos, true
}

// bracket returns the positions of the nearest cuts at or below and at
// or above the key (val, incl) — one cut, twice, when the key itself is
// registered.
func (ix *Index) bracket(val int64, incl bool) (below int, belowOK bool, above int, aboveOK bool) {
	v, i, below, belowOK := ix.Floor(val, incl)
	if belowOK && v == val && i == incl {
		return below, true, below, true
	}
	_, _, above, aboveOK = ix.Ceil(val, incl)
	return below, belowOK, above, aboveOK
}

// Insert registers a new cut. Inserting an existing key overwrites its
// position (which, by the cut invariant, is always the same value).
func (ix *Index) Insert(val int64, incl bool, pos int) {
	var inserted bool
	ix.root, inserted = insertNode(ix.root, val, incl, pos)
	if inserted {
		ix.size++
		ix.changed = true
	}
}

func insertNode(n *inode, val int64, incl bool, pos int) (*inode, bool) {
	if n == nil {
		return &inode{val: val, incl: incl, pos: pos, height: 1}, true
	}
	var inserted bool
	switch cmpCut(val, incl, n.val, n.incl) {
	case 0:
		n.pos = pos
		return n, false
	case -1:
		n.left, inserted = insertNode(n.left, val, incl, pos)
	default:
		n.right, inserted = insertNode(n.right, val, incl, pos)
	}
	return rebalance(n), inserted
}

// Delete removes a cut (piece fusion). It reports whether the key existed.
func (ix *Index) Delete(val int64, incl bool) bool {
	var deleted bool
	ix.root, deleted = deleteNode(ix.root, val, incl)
	if deleted {
		ix.size--
		ix.changed = true
	}
	return deleted
}

func deleteNode(n *inode, val int64, incl bool) (*inode, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch cmpCut(val, incl, n.val, n.incl) {
	case -1:
		n.left, deleted = deleteNode(n.left, val, incl)
	case 1:
		n.right, deleted = deleteNode(n.right, val, incl)
	default:
		deleted = true
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		default:
			// Replace with in-order successor.
			succ := n.right
			for succ.left != nil {
				succ = succ.left
			}
			n.val, n.incl, n.pos = succ.val, succ.incl, succ.pos
			n.right, _ = deleteNode(n.right, succ.val, succ.incl)
		}
	}
	return rebalance(n), deleted
}

// descend visits the cuts from the greatest key down, ascend from the
// smallest up, until visit returns more=false. visit also returns the
// position the cut now has: the update fold shifts the cuts it crosses
// in the same walk that finds them, without copying the cut list. A
// walk that stops after k cuts costs O(log p + k).
func (ix *Index) descend(visit func(c Cut) (pos int, more bool)) { ix.walk(ix.root, true, visit) }

func (ix *Index) ascend(visit func(c Cut) (pos int, more bool)) { ix.walk(ix.root, false, visit) }

func (ix *Index) walk(n *inode, desc bool, visit func(c Cut) (pos int, more bool)) bool {
	if n == nil {
		return true
	}
	first, second := n.left, n.right
	if desc {
		first, second = second, first
	}
	if !ix.walk(first, desc, visit) {
		return false
	}
	pos, more := visit(Cut{Val: n.val, Incl: n.incl, Pos: n.pos})
	ix.changed = ix.changed || n.pos != pos
	n.pos = pos
	return more && ix.walk(second, desc, visit)
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
	var walk func(*inode)
	walk = func(n *inode) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, Cut{Val: n.val, Incl: n.incl, Pos: n.pos})
		walk(n.right)
	}
	walk(ix.root)
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

// Height returns the tree height (for balance tests).
func (ix *Index) Height() int { return height(ix.root) }

func height(n *inode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func rebalance(n *inode) *inode {
	n.height = 1 + max(height(n.left), height(n.right))
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	default:
		return n
	}
}

func rotateRight(n *inode) *inode {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(height(n.left), height(n.right))
	l.height = 1 + max(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *inode) *inode {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(height(n.left), height(n.right))
	r.height = 1 + max(height(r.left), height(r.right))
	return r
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
