package core

import (
	"fmt"
	"slices"
	"sort"

	"crackdb/internal/bat"
	"crackdb/internal/relation"
)

// This file implements the Ψ, ^ and Ω crackers of paper §3.1 (the Ξ
// cracker is Column.Select). All are loss-less: Ψ is undone by a 1:1
// surrogate join, ^ and Ω by a union of the pieces.

// PsiCrack vertically cracks a table: the Ψ-cracking operation
// Ψ(π_attr(R)) producing P1 = π_attr(R) and P2 = π_(attr(R)∖attr)(R).
// Both pieces carry the surrogate key column "oid" so the original can be
// reconstructed with a natural 1:1 join (PsiReconstruct). The pieces hold
// the table's live tuples — tombstoned ones stay behind — in BATs of their
// own, so they take appends like any table. Copying them out is
// construction, not per-query reconstruction: it does not count toward
// FetchedTuples.
func PsiCrack(ct *CrackedTable, attrs ...string) (head, rest *relation.Table, err error) {
	t := ct.base
	want := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if !t.HasColumn(a) {
			return nil, nil, fmt.Errorf("core: Ψ attribute %q not in table %q", a, t.Name)
		}
		want[a] = true
	}
	names := t.ColumnNames()
	ct.baseMu.RLock()
	var oids []bat.OID
	for oid := bat.OID(0); int(oid) < t.Len(); oid++ {
		if _, dead := ct.tomb[oid]; !dead {
			oids = append(oids, oid)
		}
	}
	vecs, err := ct.gatherLocked(oids, names)
	ct.baseMu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	oidVals := make([]int64, len(oids))
	for i, oid := range oids {
		oidVals[i] = int64(oid)
	}

	headCols := []relation.Column{{Name: "oid", Data: bat.FromInts(t.Name+"_oid", oidVals)}}
	restCols := []relation.Column{{Name: "oid", Data: bat.FromInts(t.Name+"_oid", slices.Clone(oidVals))}}
	for j, name := range names {
		c := relation.Column{Name: name, Data: bat.FromInts(t.Name+"_"+name, vecs[j])}
		if want[name] {
			headCols = append(headCols, c)
		} else {
			restCols = append(restCols, c)
		}
	}
	head, err = relation.FromColumns(t.Name+"_head", headCols...)
	if err != nil {
		return nil, nil, err
	}
	rest, err = relation.FromColumns(t.Name+"_rest", restCols...)
	if err != nil {
		return nil, nil, err
	}
	return head, rest, nil
}

// PsiReconstruct undoes PsiCrack with a hash join on the surrogate key,
// restoring the attribute order given by cols.
func PsiReconstruct(name string, head, rest *relation.Table, cols []string) (*relation.Table, error) {
	hOID, err := head.Column("oid")
	if err != nil {
		return nil, err
	}
	rOID, err := rest.Column("oid")
	if err != nil {
		return nil, err
	}
	// 1:1 natural join on oid.
	restPos := make(map[int64]int, rOID.Len())
	for i := 0; i < rOID.Len(); i++ {
		restPos[rOID.Int(i)] = i
	}
	out := relation.New(name, cols...)
	for i := 0; i < hOID.Len(); i++ {
		j, ok := restPos[hOID.Int(i)]
		if !ok {
			return nil, fmt.Errorf("core: Ψ reconstruction: oid %d missing from rest piece", hOID.Int(i))
		}
		row := make([]int64, 0, len(cols))
		for _, cn := range cols {
			switch {
			case head.HasColumn(cn):
				b, _ := head.Column(cn)
				row = append(row, b.Int(i))
			case rest.HasColumn(cn):
				b, _ := rest.Column(cn)
				row = append(row, b.Int(j))
			default:
				return nil, fmt.Errorf("core: Ψ reconstruction: column %q in neither piece", cn)
			}
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// JoinPieces is the result of the ^ cracker: the four pieces
// P1 = R⋉S, P2 = R∖(R⋉S), P3 = S⋉R, P4 = S∖(S⋉R) of §3.1, each a
// consecutive area of its column (§3.4.2: "we shuffle the tuples around
// such that both operands have a consecutive area with matching tuples").
type JoinPieces struct {
	RMatch, RRest View
	SMatch, SRest View
}

// JoinCrack applies the ^ cracker to two column regions holding the join
// attributes of R and S. Tuples finding a join partner are shuffled to
// the front of each region. Existing value cuts strictly inside either
// region are invalidated (removed from the cracker index); cuts at or
// outside the region boundaries remain valid.
func JoinCrack(rv, sv View) JoinPieces {
	r, s := rv.col, sv.col
	lockPair(r, s)
	defer unlockPair(r, s)

	// Views taken before the lock may be stale if a consolidation shrank
	// the columns in between; clamp to the current extents.
	if rv.Hi > len(r.vals) {
		rv.Hi = len(r.vals)
	}
	if rv.Lo > rv.Hi {
		rv.Lo = rv.Hi
	}
	if sv.Hi > len(s.vals) {
		sv.Hi = len(s.vals)
	}
	if sv.Lo > sv.Hi {
		sv.Lo = sv.Hi
	}

	// The match sets are computed against the pre-shuffle contents; the
	// shuffle preserves each region's multiset, so order does not matter.
	sSet := make(map[int64]struct{}, sv.Hi-sv.Lo)
	for _, v := range s.vals[sv.Lo:sv.Hi] {
		sSet[v] = struct{}{}
	}
	rSet := make(map[int64]struct{}, rv.Hi-rv.Lo)
	for _, v := range r.vals[rv.Lo:rv.Hi] {
		rSet[v] = struct{}{}
	}

	rSplit := r.partitionByMembership(rv.Lo, rv.Hi, sSet, "⋉ "+s.name)
	sSplit := s.partitionByMembership(sv.Lo, sv.Hi, rSet, "⋉ "+r.name)

	return JoinPieces{
		RMatch: View{col: r, Lo: rv.Lo, Hi: rSplit},
		RRest:  View{col: r, Lo: rSplit, Hi: rv.Hi},
		SMatch: View{col: s, Lo: sv.Lo, Hi: sSplit},
		SRest:  View{col: s, Lo: sSplit, Hi: sv.Hi},
	}
}

// partitionByMembership shuffles vals[lo:hi) so members of set form the
// prefix, drops invalidated interior cuts, and records lineage. The
// caller holds c.mu. Swaps are inlined on the two slices with a local
// move counter, flushed to the atomic stats once per pass.
func (c *Column) partitionByMembership(lo, hi int, set map[int64]struct{}, detail string) int {
	for _, cut := range c.idx.Cuts() {
		if cut.Pos > lo && cut.Pos < hi {
			c.idx.Delete(cut.Val)
		}
	}
	c.touched = true
	c.dropPaysLocked() // the membership split below swaps two vectors, not k
	vals, oids := c.vals, c.oids
	var moved int64
	i, j := lo, hi-1
	for i <= j {
		if _, in := set[vals[i]]; in {
			i++
			continue
		}
		if _, in := set[vals[j]]; !in {
			j--
			continue
		}
		vals[i], vals[j] = vals[j], vals[i]
		oids[i], oids[j] = oids[j], oids[i]
		moved += 2
		i++
		j--
	}
	c.accountCrack(lo, hi, moved)
	if lin := c.lineageLocked(); i > lo && i < hi {
		if leaf := lin.LeafCovering(lo, hi); leaf != nil {
			lin.Crack(leaf, "^", detail, [2]int{lo, i}, [2]int{i, hi})
		}
	}
	return i
}

// Group is one piece of an Ω cracking: all tuples sharing one value of
// the grouping attribute, as a consecutive area.
type Group struct {
	Value int64
	View  View
}

// GroupCrack applies the Ω cracker: it clusters the column by value and
// returns one piece per distinct value — "an n-way partitioning based on
// singleton values" (§3.1). It sorts the column (value clustering
// subsumes ordering for integer domains) and registers every cut between
// groups. After that the column is an ordinary cracked column: a later
// range whose bounds fall inside a group cracks that group, and a fold
// ripples through the group cuts like any others.
func GroupCrack(c *Column) []Group {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consolidateLocked()
	c.sortLocked("Ω group crack")

	var groups []Group
	n := len(c.vals)
	for lo := 0; lo < n; {
		v := c.vals[lo]
		hi := lo + sort.Search(n-lo, func(i int) bool { return c.vals[lo+i] > v })
		groups = append(groups, Group{Value: v, View: View{col: c, Lo: lo, Hi: hi}})
		if lo > 0 {
			c.idx.Insert(v, lo)
		}
		lo = hi
	}
	root := c.lin.Leaves()[0]
	if len(groups) > 1 {
		ranges := make([][2]int, len(groups))
		for i, g := range groups {
			ranges[i] = [2]int{g.View.Lo, g.View.Hi}
		}
		c.lin.Crack(root, "Ω", "group by "+c.name, ranges...)
	}
	return groups
}

// lockPair acquires both column locks in a stable order so concurrent
// JoinCracks cannot deadlock. Self-joins lock once. Ordering is by the
// monotonically-assigned column ID — allocation-free, unlike formatting
// the pointers, and stable even for same-named columns.
func lockPair(a, b *Column) {
	if a == b {
		a.mu.Lock()
		return
	}
	if a.id > b.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
}

func unlockPair(a, b *Column) {
	if a == b {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	b.mu.Unlock()
}
