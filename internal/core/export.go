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
// everything a warm restart needs: the physically reorganized value/oid
// vectors and the payload vectors aligned with them, the registered cut
// set, pending updates, and the crack strategy's identity and RNG
// position so the post-restart cut sequence continues exactly where the
// pre-crash one left off. A checkpoint takes it whole or as a patch: the
// granules the column wrote since its last image element (granule.go),
// which boot folds back onto the state the chain restored before.
//
// Deliberately volatile (not exported): the work counters (Stats) and the
// lineage DAG's crack history. Counters restart at zero; the lineage is
// rebuilt flat — one root cracked into the current leaf pieces, and only
// when somebody asks for it — because the piece tiling, not the order
// cracks happened in, is what queries and invariants consume.

// StrategyState is the serializable identity of a crack strategy: its
// registry name, cut-off granularity, and the opaque RNG state word of
// the stochastic variants. internal/strategy turns it back into a live
// instance (strategy.Restore).
type StrategyState struct {
	Name     string
	MinPiece int
	RNG      uint64
}

// StatefulStrategy is implemented by strategies whose state can be
// round-tripped through StrategyState. A strategy that does not implement
// it is persisted by name only and restarts from its seed.
type StatefulStrategy interface {
	CrackStrategy
	Export() StrategyState
}

// PendingState is one queued insert awaiting consolidation.
type PendingState struct {
	OID bat.OID
	Val int64
}

// ColumnState is the serializable state of a cracker column: the whole
// column, or a patch that only a predecessor's state completes.
type ColumnState struct {
	Name    string
	Vals    []int64
	OIDs    []bat.OID
	Cuts    []Cut
	Sorted  bool
	NextOID bat.OID
	Pending []PendingState
	Deleted []bat.OID

	// A patch (Patch set) carries what changed since the column's previous
	// record: Len is the stored tuple count after it, Vals, OIDs and every
	// payload's Vals hold only the listed Granules, one after another, and
	// Cuts is the new cut set only when NewCuts is set. Everything else is
	// whole. Fold applies a patch to its predecessor.
	Patch    bool
	Len      int
	Granules []int
	NewCuts  bool

	// Strategy is nil for standard cracking and for strategies that do
	// not implement StatefulStrategy.
	Strategy *StrategyState

	// Pays are the column's payload vectors, least recently used first,
	// so a restore under a smaller budget evicts the right ones.
	Pays []PayloadState
}

// TakeState exports the column for an image element, payload vectors
// included, under one read-lock hold, and takes its write-back marks;
// changed reports whether anything was marked, i.e. whether the column
// moved since the last take. The returned slices are copies; the column
// may keep cracking afterwards. With whole set (a base, or a table the
// element rewrites) the state is the whole column. Without it the state
// is a patch of the marked granules, or the whole column once at least
// half of them are marked, and it is the zero state when nothing
// changed: the element need not carry the column.
//
// The marks are cleared under the read lock, so converged lookups keep
// running while a base copies the vectors: every site that sets a mark
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
	n := len(c.vals)
	st := ColumnState{
		Name:     c.name,
		Vals:     granuleCopy(c.vals, gs),
		OIDs:     granuleCopy(c.oids, gs),
		Sorted:   c.sorted,
		NextOID:  c.nextOID,
		Patch:    gs != nil,
		Granules: gs,
		NewCuts:  gs != nil && cuts,
	}
	if st.Patch {
		st.Len = n
	}
	if cuts {
		st.Cuts = c.idx.Cuts()
	}
	for _, p := range c.pending {
		st.Pending = append(st.Pending, PendingState{OID: p.oid, Val: p.val})
	}
	byUse := slices.Clone(c.pays)
	sort.SliceStable(byUse, func(i, j int) bool { return byUse[i].used.Load() < byUse[j].used.Load() })
	for _, p := range byUse {
		st.Pays = append(st.Pays, PayloadState{Attr: p.attr, Vals: granuleCopy(p.vals, gs), Pend: slices.Clone(p.pend)})
	}
	for oid := range c.deleted {
		st.Deleted = append(st.Deleted, oid)
	}
	sortOIDs(st.Deleted)
	if ss, ok := c.strategy.(StatefulStrategy); ok {
		s := ss.Export()
		st.Strategy = &s
	}
	return st
}

// granuleCopy copies src whole when gs is nil, otherwise the listed
// granules of it, one after another.
func granuleCopy[T any](src []T, gs []int) []T {
	if gs == nil {
		return slices.Clone(src)
	}
	out := make([]T, 0, len(gs)*Granule)
	for _, g := range gs {
		lo, hi := granuleSpan(g, len(src))
		out = append(out, src[lo:hi]...)
	}
	return out
}

// Fold applies the patch p to st, the whole state the chain restored for
// the same column before it: the vectors take the patch's length and its
// granules, the cut set is replaced only when the patch carries one, and
// every other field is the patch's. It refuses a patch that cannot be a
// successor of st — another column, another payload set, granules out of
// order or past the end, vectors of the wrong length, or a column that
// grew without carrying its new positions. ColumnFromState still checks
// the result's cut invariant.
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
	if len(p.Vals) != m || len(p.OIDs) != m || len(p.Pays) != len(st.Pays) {
		return fmt.Errorf("core: column %q patch carries %d values, %d oids and %d payloads for %d granule positions and %d payloads",
			p.Name, len(p.Vals), len(p.OIDs), len(p.Pays), m, len(st.Pays))
	}
	for g := len(st.Vals) / Granule; len(st.Vals) < p.Len && g*Granule < p.Len; g++ {
		if !slices.Contains(p.Granules, g) {
			return fmt.Errorf("core: column %q grew to %d tuples without carrying granule %d", p.Name, p.Len, g)
		}
	}
	pays := make([]PayloadState, len(p.Pays))
	for i, pp := range p.Pays {
		j := slices.IndexFunc(st.Pays, func(q PayloadState) bool { return q.Attr == pp.Attr })
		if j < 0 || len(pp.Vals) != m {
			return fmt.Errorf("core: column %q patch carries payload %q the chain does not hold, or %d values of it", p.Name, pp.Attr, len(pp.Vals))
		}
		pays[i] = PayloadState{Attr: pp.Attr, Vals: foldGranules(st.Pays[j].Vals, pp.Vals, p.Granules, p.Len), Pend: pp.Pend}
	}
	st.Vals = foldGranules(st.Vals, p.Vals, p.Granules, p.Len)
	st.OIDs = foldGranules(st.OIDs, p.OIDs, p.Granules, p.Len)
	st.Pays = pays
	if p.NewCuts {
		st.Cuts = p.Cuts
	}
	st.Sorted, st.NextOID, st.Pending, st.Deleted, st.Strategy = p.Sorted, p.NextOID, p.Pending, p.Deleted, p.Strategy
	return nil
}

// foldGranules resizes dst to n positions and copies the granules gs in,
// taking their values from src one after another.
func foldGranules[T any](dst, src []T, gs []int, n int) []T {
	if n <= len(dst) {
		dst = dst[:n]
	} else {
		dst = append(dst, make([]T, n-len(dst))...)
	}
	for _, g := range gs {
		lo, hi := granuleSpan(g, n)
		src = src[copy(dst[lo:hi], src):]
	}
	return dst
}

// ColumnFromState reconstructs a cracker column from an exported state,
// validating the cut invariants before accepting it (a corrupted or
// hand-edited snapshot must not poison future cracks). Payload vectors
// must cover every stored tuple and pending insert and name distinct
// attributes; they attach unstamped, and the sideways budget stamps them
// when it adopts the store's restored tables (sideways.Registry.Adopt,
// which walks every table the store holds). Options apply as in NewColumn; pass
// WithStrategy to reattach a restored strategy instance — the state's
// Strategy field is identity only, it is not instantiated here (core
// cannot depend on internal/strategy).
func ColumnFromState(st ColumnState, opts ...Option) (*Column, error) {
	if st.Patch {
		return nil, fmt.Errorf("core: column %q state is a patch with nothing folded under it", st.Name)
	}
	if len(st.Vals) != len(st.OIDs) {
		return nil, fmt.Errorf("core: column %q state has %d values but %d oids",
			st.Name, len(st.Vals), len(st.OIDs))
	}
	if err := VerifyCuts(st.Vals, st.Cuts); err != nil {
		return nil, fmt.Errorf("core: column %q state rejected: %w", st.Name, err)
	}
	idx, err := IndexFromSorted(st.Cuts)
	if err != nil {
		return nil, fmt.Errorf("core: column %q state rejected: %w", st.Name, err)
	}
	c := &Column{
		id:      columnIDs.Add(1),
		name:    st.Name,
		vals:    append([]int64(nil), st.Vals...),
		oids:    append([]bat.OID(nil), st.OIDs...),
		idx:     idx,
		reroot:  "restored",
		sorted:  st.Sorted,
		nextOID: st.NextOID,
		deleted: make(map[bat.OID]struct{}, len(st.Deleted)),
	}
	for i, p := range st.Pending {
		if p.OID >= c.nextOID {
			return nil, fmt.Errorf("core: column %q pending oid %d >= next oid %d",
				st.Name, p.OID, c.nextOID)
		}
		c.pending = append(c.pending, pendingInsert{oid: p.OID, row: uint32(i), val: p.Val})
	}
	for _, oid := range st.Deleted {
		c.deleted[oid] = struct{}{}
	}
	for _, ps := range st.Pays {
		if len(ps.Vals) != len(st.Vals) || len(ps.Pend) != len(st.Pending) {
			return nil, fmt.Errorf("core: column %q payload %q has %d values and %d pending, want %d and %d",
				st.Name, ps.Attr, len(ps.Vals), len(ps.Pend), len(st.Vals), len(st.Pending))
		}
		if c.payloadLocked(ps.Attr) != nil {
			return nil, fmt.Errorf("core: column %q carries payload %q twice", st.Name, ps.Attr)
		}
		c.pays = append(c.pays, &payload{attr: ps.Attr, vals: slices.Clone(ps.Vals), pend: slices.Clone(ps.Pend)})
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// sortOIDs orders an OID slice ascending (deterministic snapshots).
func sortOIDs(s []bat.OID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
