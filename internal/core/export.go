package core

import (
	"fmt"
	"slices"
	"sort"

	"crackdb/internal/bat"
)

// Export/import of a cracker column's auxiliary state, the seam the
// durability subsystem (internal/durable) serializes through. The paper's
// prototype drops this state on shutdown — "each table comes with its own
// cracker index and they are not saved between sessions" (§5.2) — so a
// restart re-pays the full crack convergence cost. ColumnState captures
// what a warm restart needs and the rows cannot tell: the OID order the
// column was cracked into, the cut keys, pending updates and payload
// attributes, and the crack strategy's identity and RNG position so the
// post-restart cut sequence continues exactly where the pre-crash one
// left off. Values, payload vectors and cut positions are derived from
// the rows on restore (ColumnFromState). A checkpoint takes the state
// whole or as a patch: the granules the column wrote since its last
// image element (granule.go), which boot folds back onto the state the
// chain restored before.
//
// Deliberately volatile (not exported): the work counters (Stats) and the
// lineage DAG's crack history. Counters restart at zero; the lineage is
// rebuilt flat — one root cracked into the current leaf pieces, and only
// when somebody asks for it — because the piece tiling, not the order
// cracks happened in, is what queries and invariants consume.

// ColumnState is the serializable state of a cracker column: the whole
// column, or a patch that only a predecessor's state completes.
type ColumnState struct {
	Name    string
	OIDs    []bat.OID
	Cuts    []Cut // keys in order; every Pos is 0, restore counts them
	Sorted  bool
	NextOID bat.OID
	Pending []bat.OID // queued inserts, in queue order
	Deleted []bat.OID

	// A patch (Patch set) carries what changed since the column's previous
	// record: Len is the stored tuple count after it, OIDs holds only the
	// listed Granules, one after another, and Cuts is the new cut set only
	// when NewCuts is set. Everything else is whole. Fold applies a patch
	// to its predecessor.
	Patch    bool
	Len      int
	Granules []int
	NewCuts  bool

	// Strategy is nil for standard cracking.
	Strategy *CrackStrategy

	// Pays names the column's payload vectors, least recently used first,
	// so a restore under a smaller budget evicts the right ones.
	Pays []string
}

// TakeState exports the column for an image element under one read-lock
// hold, and takes its write-back marks; changed reports whether anything
// was marked, i.e. whether the column moved since the last take. The
// returned slices are copies; the column may keep cracking afterwards.
// With whole set (a base, or a table the element rewrites) the state is
// the whole column. Without it the state is a patch of the marked
// granules, or the whole column once at least half of them are marked,
// and it is the zero state when nothing changed: the element need not
// carry the column.
//
// The marks are cleared under the read lock, so converged lookups keep
// running while a base copies the OIDs: every site that sets a mark
// holds the write lock, and the store serializes takes (crackdb's
// WriteImage holds the store lock across an element).
func (c *Column) TakeState(whole bool) (st ColumnState, changed bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	gs := c.dirty.list(len(c.vals))
	newCuts := c.idx.changed
	changed = len(gs) > 0 || c.touched || newCuts
	clear(c.dirty)
	c.touched, c.idx.changed = false, false
	switch {
	case whole:
		return c.exportLocked(nil, true), changed
	case !changed:
		return ColumnState{}, false
	case 2*len(gs) >= granuleCount(len(c.vals)):
		return c.exportLocked(nil, true), true
	}
	return c.exportLocked(gs, newCuts), true
}

// exportLocked copies the column's state: whole with gs nil, otherwise
// the patch of granules gs, carrying the cut set only with cuts. The
// caller holds c.mu in either mode.
func (c *Column) exportLocked(gs []int, cuts bool) ColumnState {
	st := ColumnState{
		Name:     c.name,
		OIDs:     granuleCopy(c.oids, gs),
		Sorted:   c.sorted,
		NextOID:  c.nextOID,
		Patch:    gs != nil,
		Granules: gs,
		NewCuts:  gs != nil && cuts,
	}
	if st.Patch {
		st.Len = len(c.oids)
	}
	if cuts {
		st.Cuts = c.idx.Cuts()
		for i := range st.Cuts {
			st.Cuts[i].Pos = 0
		}
	}
	for _, p := range c.pending {
		st.Pending = append(st.Pending, p.oid)
	}
	byUse := slices.Clone(c.pays)
	sort.SliceStable(byUse, func(i, j int) bool { return byUse[i].used.Load() < byUse[j].used.Load() })
	for _, p := range byUse {
		st.Pays = append(st.Pays, p.attr)
	}
	for oid := range c.deleted {
		st.Deleted = append(st.Deleted, oid)
	}
	sortOIDs(st.Deleted)
	if c.strategy.advises() {
		s := c.strategy
		st.Strategy = &s
	}
	return st
}

// granuleCopy copies oids whole when gs is nil, otherwise the listed
// granules of it, one after another.
func granuleCopy(oids []bat.OID, gs []int) []bat.OID {
	if gs == nil {
		return slices.Clone(oids)
	}
	out := make([]bat.OID, 0, len(gs)*Granule)
	for _, g := range gs {
		lo, hi := granuleSpan(g, len(oids))
		out = append(out, oids[lo:hi]...)
	}
	return out
}

// Fold applies the patch p to st, the whole state the chain restored for
// the same column before it: the OIDs take the patch's length and its
// granules, the cut set is replaced only when the patch carries one, and
// every other field is the patch's. It refuses a patch that cannot be a
// successor of st — another column, granules out of order or past the
// end, OIDs of the wrong length, or a column that grew without carrying
// its new positions. ColumnFromState still checks the result against the
// rows.
func (st *ColumnState) Fold(p ColumnState) error {
	if !p.Patch || st.Patch || p.Name != st.Name || p.Len < 0 {
		return fmt.Errorf("core: cannot fold record of %q (patch=%v) onto %q (patch=%v)", p.Name, p.Patch, st.Name, st.Patch)
	}
	m := 0
	for i, g := range p.Granules {
		if g < 0 || g >= granuleCount(p.Len) || i > 0 && g <= p.Granules[i-1] {
			return fmt.Errorf("core: column %q patch lists granule %d out of order or past %d tuples", p.Name, g, p.Len)
		}
		lo, hi := granuleSpan(g, p.Len)
		m += hi - lo
	}
	if len(p.OIDs) != m {
		return fmt.Errorf("core: column %q patch carries %d oids for %d granule positions", p.Name, len(p.OIDs), m)
	}
	for g := len(st.OIDs) / Granule; len(st.OIDs) < p.Len && g*Granule < p.Len; g++ {
		if !slices.Contains(p.Granules, g) {
			return fmt.Errorf("core: column %q grew to %d tuples without carrying granule %d", p.Name, p.Len, g)
		}
	}
	if p.Len <= len(st.OIDs) {
		st.OIDs = st.OIDs[:p.Len]
	} else {
		st.OIDs = append(st.OIDs, make([]bat.OID, p.Len-len(st.OIDs))...)
	}
	src := p.OIDs
	for _, g := range p.Granules {
		lo, hi := granuleSpan(g, p.Len)
		src = src[copy(st.OIDs[lo:hi], src):]
	}
	if p.NewCuts {
		st.Cuts = p.Cuts
	}
	st.Sorted, st.NextOID, st.Pending, st.Deleted, st.Strategy, st.Pays = p.Sorted, p.NextOID, p.Pending, p.Deleted, p.Strategy, p.Pays
	return nil
}

// ColumnFromState rebuilds attr's cracker column from an exported state
// and the table's rows, which determine the rest: the value at position
// i is attr's base value at OIDs[i], pending values and payload vectors
// are gathered the same way, and each cut's position is the number of
// values left of it. A state the rows contradict — an OID past NextOID
// or held twice, a NextOID past the table, a tombstoned row stored but
// not deleted, values out of cut order, a payload of no other attribute
// — is refused with an error naming the column: a corrupted image must
// not poison future cracks. Payload vectors attach unstamped, for the
// sideways budget to adopt (sideways.Registry.Adopt). Options apply as
// in NewColumn; pass WithStrategy to reattach the state's Strategy once
// internal/strategy has validated it (strategy.Restore). ReplaceColumn
// installs the result.
func (ct *CrackedTable) ColumnFromState(attr string, st ColumnState, opts ...Option) (*Column, error) {
	fail := func(format string, args ...any) (*Column, error) {
		return nil, fmt.Errorf("core: column %q state rejected: "+format, append([]any{st.Name}, args...)...)
	}
	if st.Patch {
		return fail("a patch with nothing folded under it")
	}
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	col, err := ct.base.Column(attr)
	if err != nil {
		return fail("%v", err)
	}
	key := col.Ints()
	if int(st.NextOID) > len(key) {
		return fail("next oid %d past the table's %d rows", st.NextOID, len(key))
	}
	held := make([]uint64, (int(st.NextOID)+63)/64) // one bitmap pass over every OID the column holds
	for _, oids := range [][]bat.OID{st.OIDs, st.Pending} {
		for _, oid := range oids {
			if oid >= st.NextOID || held[oid/64]&(1<<(oid%64)) != 0 {
				return fail("oid %d past next oid %d, or held twice", oid, st.NextOID)
			}
			held[oid/64] |= 1 << (oid % 64)
		}
	}
	c := &Column{
		id:      columnIDs.Add(1),
		name:    st.Name,
		vals:    gather(key, st.OIDs),
		oids:    slices.Clone(st.OIDs),
		reroot:  "restored",
		sorted:  st.Sorted,
		nextOID: st.NextOID,
		deleted: make(map[bat.OID]struct{}, len(st.Deleted)),
	}
	for _, oid := range st.Deleted {
		c.deleted[oid] = struct{}{}
	}
	for oid := range ct.tomb {
		if _, listed := c.deleted[oid]; !listed && oid < st.NextOID && held[oid/64]&(1<<(oid%64)) != 0 {
			return fail("tombstoned oid %d is stored but not deleted", oid)
		}
	}
	cuts := slices.Clone(st.Cuts)
	if err := placeCuts(c.vals, cuts); err != nil {
		return fail("%w", err)
	}
	if c.idx, err = IndexFromSorted(cuts); err != nil {
		return fail("%w", err)
	}
	for i, oid := range st.Pending {
		c.pending = append(c.pending, pendingInsert{oid: oid, row: uint32(i), val: key[oid]})
	}
	for _, a := range st.Pays {
		src, err := ct.base.Column(a)
		if a == attr || err != nil || c.payloadLocked(a) != nil {
			return fail("payload %q is not another column of %q, or is listed twice", a, ct.base.Name)
		}
		c.pays = append(c.pays, &payload{attr: a, vals: gather(src.Ints(), st.OIDs), pend: gather(src.Ints(), st.Pending)})
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// gather returns src[oid] for each of oids, which the caller has bounded
// by len(src).
func gather(src []int64, oids []bat.OID) []int64 {
	out := make([]int64, len(oids))
	for i, oid := range oids {
		out[i] = src[oid]
	}
	return out
}

// sortOIDs orders an OID slice ascending (deterministic snapshots).
func sortOIDs(s []bat.OID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
