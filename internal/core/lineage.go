package core

import (
	"fmt"
	"sort"
	"strings"
)

// Lineage is the administration of where pieces came from: "we have to
// administer the lineage of each piece, i.e. its source and the Ξ, Ψ, ^
// or Ω operators applied" (paper §3.2). It is a DAG of piece nodes whose
// rendering reproduces the trees of Figures 5 and 6, and it supports the
// loss-less reconstruction guarantee: the original table is recoverable
// from the leaves.
type Lineage struct {
	table string
	seq   int
	roots []*PieceNode
	byID  map[string]*PieceNode

	// leaves is the current leaf set, sorted by Lo, maintained by Root
	// and Crack, so that locating the leaf a crack splits is a binary
	// search, not a walk of the DAG.
	leaves []*PieceNode

	// log holds the Ξ cracks not yet folded into the DAG. A crack is
	// recorded as one pointer-free entry — no node, no ID string, no
	// leaf-set splice on the query path — and becomes nodes only when
	// somebody looks (see fold).
	log []xiCrack
}

// xiCrack is one registered selection crack: the piece [lo, hi) was
// split at m1 and m2 (m2 == hi for a two-way split) on the cut value(s).
type xiCrack struct {
	lo, hi, m1, m2 int
	v1, v2         int64
	three          bool // crack-in-three: v1 and v2 are its cuts Low and High+1
}

// PieceNode is one piece in the lineage DAG.
type PieceNode struct {
	ID       string // e.g. "R[4]"
	Op       string // cracker that produced it: "Ξ", "Ψ", "^", "Ω"; "" for roots
	Detail   string // human-readable predicate or operand, e.g. "a < 10"
	Lo, Hi   int    // physical location at creation time
	Parent   *PieceNode
	Children []*PieceNode
}

// NewLineage starts lineage tracking for a table (or cracker column).
func NewLineage(table string) *Lineage {
	l := &Lineage{table: table, byID: make(map[string]*PieceNode)}
	return l
}

// Root registers a root piece covering [lo, hi) and returns it.
func (l *Lineage) Root(lo, hi int) *PieceNode {
	n := &PieceNode{ID: l.nextID(), Lo: lo, Hi: hi}
	l.roots = append(l.roots, n)
	l.byID[n.ID] = n
	// Keep the leaf cache sorted; roots arrive in arbitrary positions.
	at := sort.Search(len(l.leaves), func(i int) bool { return l.leaves[i].Lo > n.Lo })
	l.leaves = append(l.leaves, nil)
	copy(l.leaves[at+1:], l.leaves[at:])
	l.leaves[at] = n
	return n
}

// Crack records that parent was broken by op into the given position
// ranges and returns the child nodes, in order.
func (l *Lineage) Crack(parent *PieceNode, op, detail string, ranges ...[2]int) []*PieceNode {
	children := make([]*PieceNode, 0, len(ranges))
	for _, r := range ranges {
		c := &PieceNode{
			ID:     l.nextID(),
			Op:     op,
			Detail: detail,
			Lo:     r[0],
			Hi:     r[1],
			Parent: parent,
		}
		parent.Children = append(parent.Children, c)
		l.byID[c.ID] = c
		children = append(children, c)
	}
	// Replace parent with its children in the leaf cache. The children
	// tile a subrange of the parent in ascending order, so splicing them
	// into the parent's slot preserves the sort.
	if len(children) == 0 {
		return children
	}
	if at, ok := l.leafIndex(parent); ok {
		l.leaves = append(l.leaves, make([]*PieceNode, len(children)-1)...)
		copy(l.leaves[at+len(children):], l.leaves[at+1:])
		copy(l.leaves[at:], children)
	}
	return children
}

// leafIndex locates a node in the sorted leaf cache.
func (l *Lineage) leafIndex(n *PieceNode) (int, bool) {
	at := sort.Search(len(l.leaves), func(i int) bool { return l.leaves[i].Lo >= n.Lo })
	for ; at < len(l.leaves) && l.leaves[at].Lo == n.Lo; at++ {
		if l.leaves[at] == n {
			return at, true
		}
	}
	return 0, false
}

// LeafCovering returns the leaf whose range contains [lo, hi), or nil.
// Leaves tile disjoint ranges in sorted order, so the only candidate is
// the rightmost leaf starting at or before lo.
func (l *Lineage) LeafCovering(lo, hi int) *PieceNode {
	at := sort.Search(len(l.leaves), func(i int) bool { return l.leaves[i].Lo > lo })
	if at == 0 {
		return nil
	}
	if leaf := l.leaves[at-1]; hi <= leaf.Hi {
		return leaf
	}
	return nil
}

// fold replays the logged Ξ cracks, in order, into the DAG: each splits
// the leaf covering its piece into its non-empty child ranges. The
// caller holds the owning column's write lock.
func (l *Lineage) fold() {
	for _, x := range l.log {
		leaf := l.LeafCovering(x.lo, x.hi)
		if leaf == nil {
			continue
		}
		var kept [][2]int
		for _, r := range [3][2]int{{x.lo, x.m1}, {x.m1, x.m2}, {x.m2, x.hi}} {
			if r[1] > r[0] {
				kept = append(kept, r)
			}
		}
		if len(kept) < 2 {
			continue
		}
		detail := fmt.Sprintf("%s < %d", l.table, x.v1)
		if x.three { // named by the inclusive range its middle piece holds
			detail = fmt.Sprintf("%s ∈ cut(%d,%d)", l.table, x.v1, x.v2-1)
		}
		l.Crack(leaf, "Ξ", detail, kept...)
	}
	l.log = nil
}

func (l *Lineage) nextID() string {
	l.seq++
	return fmt.Sprintf("%s[%d]", l.table, l.seq)
}

// Leaves returns the current pieces (nodes without children), sorted by
// physical position. Their position ranges tile the union of the roots —
// the loss-less property. The returned slice is a copy of the
// incrementally maintained leaf cache.
func (l *Lineage) Leaves() []*PieceNode {
	return append([]*PieceNode(nil), l.leaves...)
}

// Size returns the total number of registered pieces.
func (l *Lineage) Size() int { return len(l.byID) }

// Render draws the lineage as an indented tree, the textual analogue of
// the paper's Figure 5 / Figure 6 graphs.
func (l *Lineage) Render() string {
	var b strings.Builder
	var walk func(n *PieceNode, depth int)
	walk = func(n *PieceNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if n.Op != "" {
			fmt.Fprintf(&b, "%s %s(%s) [%d,%d)\n", n.ID, n.Op, n.Detail, n.Lo, n.Hi)
		} else {
			fmt.Fprintf(&b, "%s [%d,%d)\n", n.ID, n.Lo, n.Hi)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range l.roots {
		walk(r, 0)
	}
	return b.String()
}
