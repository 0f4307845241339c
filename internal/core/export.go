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
// pre-crash one left off.
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

// ColumnState is the complete serializable state of a cracker column.
type ColumnState struct {
	Name    string
	Vals    []int64
	OIDs    []bat.OID
	Cuts    []Cut
	Sorted  bool
	NextOID bat.OID
	Pending []PendingState
	Deleted []bat.OID

	// Strategy is nil for standard cracking and for strategies that do
	// not implement StatefulStrategy.
	Strategy *StrategyState

	// Pays are the column's payload vectors, least recently used first,
	// so a restore under a smaller budget evicts the right ones.
	Pays []PayloadState
}

// ExportState snapshots the column, payload vectors included, under one
// read-lock hold. The returned slices are copies; the column may keep
// cracking afterwards.
func (c *Column) ExportState() ColumnState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := ColumnState{
		Name:    c.name,
		Vals:    append([]int64(nil), c.vals...),
		OIDs:    append([]bat.OID(nil), c.oids...),
		Cuts:    c.idx.Cuts(),
		Sorted:  c.sorted,
		NextOID: c.nextOID,
	}
	for _, p := range c.pending {
		st.Pending = append(st.Pending, PendingState{OID: p.oid, Val: p.val})
	}
	byUse := slices.Clone(c.pays)
	sort.SliceStable(byUse, func(i, j int) bool { return byUse[i].used.Load() < byUse[j].used.Load() })
	for _, p := range byUse {
		st.Pays = append(st.Pays, PayloadState{Attr: p.attr, Vals: slices.Clone(p.vals), Pend: slices.Clone(p.pend)})
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

// ColumnFromState reconstructs a cracker column from an exported state,
// validating the cut invariants before accepting it (a corrupted or
// hand-edited snapshot must not poison future cracks). Payload vectors
// must cover every stored tuple and pending insert and name distinct
// attributes; they attach unstamped, for the sideways budget to adopt
// (sideways.Registry.Adopt). Options apply as in NewColumn; pass
// WithStrategy to reattach a restored strategy instance — the state's
// Strategy field is identity only, it is not instantiated here (core
// cannot depend on internal/strategy).
func ColumnFromState(st ColumnState, opts ...Option) (*Column, error) {
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

// StateFingerprint hashes everything ExportState would serialize except
// the value/oid vectors themselves: the cut set, pending queue, tombstone
// set, vector length, and strategy identity/RNG position. Two columns
// with equal fingerprints would export byte-identical crack state as long
// as the underlying vectors are unchanged — which the caller establishes
// separately (a data change tombstones or appends, both of which move
// nextOID or the deleted set and therefore the fingerprint). The hash is
// over the cut contents, not over any history of how they came to be,
// so it is stable across a save/restore round trip, which is what
// differential checkpoints need.
func (c *Column) StateFingerprint() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var h uint64 = fingerprintSeed
	mix := func(v uint64) { h = fpMix(h ^ v) }
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	mixStr(c.name)
	mix(uint64(len(c.vals)))
	mix(uint64(c.nextOID))
	if c.sorted {
		mix(1)
	} else {
		mix(2)
	}
	for _, cut := range c.idx.Cuts() {
		mix(uint64(cut.Val))
		mix(uint64(cut.Pos))
		if cut.Incl {
			mix(1)
		} else {
			mix(2)
		}
	}
	mix(uint64(len(c.pending)))
	for _, p := range c.pending {
		mix(uint64(p.oid))
		mix(uint64(p.val))
	}
	del := make([]bat.OID, 0, len(c.deleted))
	for oid := range c.deleted {
		del = append(del, oid)
	}
	sortOIDs(del)
	mix(uint64(len(del)))
	for _, oid := range del {
		mix(uint64(oid))
	}
	if ss, ok := c.strategy.(StatefulStrategy); ok {
		st := ss.Export()
		mixStr(st.Name)
		mix(uint64(st.MinPiece))
		mix(st.RNG)
	} else if c.strategy != nil {
		mixStr(c.strategy.Name())
	}
	return h
}

const fingerprintSeed = 0x9e3779b97f4a7c15

// fpMix is the splitmix64 finalizer: a cheap full-avalanche mixer.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
