// Package sideways implements partial sideways cracking (Idreos,
// Kersten & Manegold's follow-up for multi-attribute queries): per
// (key, payload) attribute pair the store maintains a cracker map —
// aligned vectors of key values, surrogate OIDs and payload values that
// are physically reorganized together, in lockstep, by the same range
// predicates that crack the primary column. Projection of the payload
// for a key-range selection then becomes a sequential scan of the
// co-cracked window instead of one random base-table access per tuple,
// which is the reconstruction cost CrackedTable.Fetch pays today.
//
// The "partial" qualifier is the resource discipline: maps are created
// lazily, on the first projection that would use them, and the total
// number of live payload vectors is bounded by a configurable budget
// with least-recently-used eviction. Maps of the same key column share
// one (keys, oids) spine and one cracker index, so every payload vector
// of a key is permuted identically — a multi-attribute projection reads
// the same window from each vector and the i-th elements of all windows
// describe the same tuple, with no per-tuple OID lookups.
//
// Alignment with the store is maintained two ways:
//
//   - selections: a CrackedTable select observer (wired by the root
//     store) forwards every answered range, and the map applies the same
//     cuts to its own vectors — the lockstep that keeps maps as
//     converged as the primary column;
//   - inserts: maps pull rows appended since their last synchronization
//     from the base table and reset their cut index, the same
//     merge-complete discipline the primary column uses for pending
//     updates.
//
// Stochastic crack strategies (internal/strategy) apply to the maps
// exactly as to primary columns: each map spine owns a strategy instance
// (seeded deterministically from the store seed and the map identity)
// consulted through core.NewPieceContext whenever a new cut is opened,
// so an adversarial workload cannot steer the map index any more than it
// can steer the column index.
//
// The registry serializes on one mutex. The fast path for stores that
// never project (an atomic live-set check) costs nothing; once maps
// exist, selections on their key column pay two index probes under the
// mutex when converged. Maps assume append-only tables — the only
// mutation the store API offers — and the store-level projection path
// falls back to the base-table fetch whenever a map cannot serve a
// request exactly (budget exhausted, stale result, unknown attribute).
package sideways

import (
	"fmt"
	"math"
	"sort"

	"sync"
	"sync/atomic"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/expr"
)

// DefaultBudget is the default bound on live payload vectors per
// registry. Each vector costs 8 bytes per base row; 16 vectors over a
// 1M-row table is 128 MB at most — plenty for a handful of hot
// attribute pairs while keeping a scan-everything workload from
// shadow-copying the whole store.
const DefaultBudget = 16

// maxAuxCracksPerCut mirrors core's consultation-loop bound: 64 covers a
// full binary descent of the int64 domain.
const maxAuxCracksPerCut = 64

// Stats is a point-in-time snapshot of the registry's work counters.
type Stats struct {
	Sets        int   // live map spines (one per cracked key column)
	Pays        int   // live payload vectors (the budgeted quantity)
	Builds      int64 // payload vectors materialized from the base table
	Evictions   int64 // payload vectors dropped by the LRU budget
	Projections int64 // multi-attribute projections served from maps
	Fallbacks   int64 // projections declined (budget, staleness, unknown attr)
	Declines    int64 // Fallbacks subset: a live map existed but refused
	// (stale wrapper, sync failure, count mismatch, payload build error) —
	// the signal that maps are churning rather than merely absent.

	Cracks        int64 // partition passes over map vectors
	AuxCracks     int64 // strategy-advised auxiliary map cracks
	TuplesTouched int64 // elements inspected during map partitioning
	TuplesMoved   int64 // element writes during map partitioning
}

// Registry owns every sideways map of one store. All methods are safe
// for concurrent use; a single internal mutex serializes map access.
type Registry struct {
	mu     sync.Mutex
	budget int // max live payload vectors; 0 disables, < 0 unbounded
	clock  uint64
	sets   map[string]*mapSet
	pays   int
	live   atomic.Int32 // len(sets): lock-free fast path for Observe

	// newStrategy builds the crack strategy for a new map spine. It must
	// be deterministic in (table, key) so a store and its warm-reopened
	// twin derive identical map strategies.
	newStrategy func(table, key string) core.CrackStrategy

	stats Stats
}

// mapSet is the shared spine of every map of one key column: the
// co-cracked key and OID vectors, the cut index, and the payload vectors
// riding along. All fields are guarded by the registry mutex.
type mapSet struct {
	table, key string
	ct         *core.CrackedTable // the table the spine was built from
	keys       []int64
	oids       []bat.OID
	pays       []*payVec
	idx        *core.Index
	strategy   core.CrackStrategy
	synced     int // base rows [0, synced) are present in the vectors
}

type payVec struct {
	attr  string
	vals  []int64
	stamp uint64 // LRU clock stamp of the last projection using it
}

// NewRegistry returns a registry with the given payload-vector budget
// (0 disables sideways cracking entirely; < 0 removes the bound).
func NewRegistry(budget int) *Registry {
	return &Registry{budget: budget, sets: make(map[string]*mapSet)}
}

// SetBudget adjusts the payload-vector budget. Shrinking evicts down to
// the new bound immediately; 0 drops every map and disables the
// subsystem.
func (g *Registry) SetBudget(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.budget = n
	if n == 0 {
		g.sets = make(map[string]*mapSet)
		g.pays = 0
		g.live.Store(0)
		return
	}
	g.evictOverBudget()
}

// Budget returns the current payload-vector budget.
func (g *Registry) Budget() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.budget
}

// SetStrategyFactory installs the constructor for new map strategies.
// The factory must be deterministic in (table, key); nil selects
// standard cracking. Existing maps keep their strategies.
func (g *Registry) SetStrategyFactory(f func(table, key string) core.CrackStrategy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.newStrategy = f
}

// SwapStrategy replaces the strategy of the live map spine keyed by
// (table, key), if one exists. swap receives the outgoing strategy
// (nil for standard) and returns its replacement, invoked under the
// registry mutex so no crack can consult a half-replaced instance.
// This is the tuner's lockstep hook: when a column's strategy flips,
// its sideways map flips in the same breath, and — exactly as for the
// column — the swap only changes future pivot advice, never the cuts
// already partitioning the spine.
func (g *Registry) SwapStrategy(table, key string, swap func(old core.CrackStrategy) core.CrackStrategy) {
	if swap == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.sets[setID(table, key)]; ok {
		m.strategy = swap(m.strategy)
	}
}

// Snapshot returns the current work counters and map census.
func (g *Registry) Snapshot() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.Sets = len(g.sets)
	s.Pays = g.pays
	return s
}

// DropTable discards every map of one table (table dropped or replaced).
func (g *Registry) DropTable(table string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, m := range g.sets {
		if m.table == table {
			g.pays -= len(m.pays)
			delete(g.sets, id)
		}
	}
	g.live.Store(int32(len(g.sets)))
}

// Observe applies a just-answered selection range to the map spine of
// (table, r.Col), keeping it cracked in lockstep with the primary
// column. Stores without live maps pay one atomic load.
func (g *Registry) Observe(ct *core.CrackedTable, table string, r expr.Range) {
	if g.live.Load() == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.sets[setID(table, r.Col)]
	if !ok || m.ct != ct {
		// A spine built from a different wrapper (the table was dropped
		// and recreated under the same name) must not be synced or
		// cracked against this one — its vectors describe other data.
		return
	}
	if err := g.sync(ct, m); err != nil {
		g.dropSet(m)
		return
	}
	g.crackRange(m, r)
}

// Project serves a multi-attribute projection from the maps: the
// columnar windows of the requested attributes for the key range r, each
// a fresh copy, mutually aligned element-by-element. want is the tuple
// count the caller's selection produced; a map whose window disagrees
// (rows were appended into the range since the selection) declines, and
// the caller falls back to the base-table fetch. ok=false never leaves
// partial state behind.
func (g *Registry) Project(ct *core.CrackedTable, table string, r expr.Range, attrs []string, want int) ([][]int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.budget == 0 {
		return nil, false
	}
	needed := 0
	seen := map[string]bool{}
	for _, a := range attrs {
		if a != r.Col && !seen[a] {
			seen[a] = true
			needed++
		}
	}
	if g.budget > 0 && needed > g.budget {
		g.stats.Fallbacks++
		return nil, false
	}
	m, err := g.ensureSet(ct, table, r.Col)
	if err != nil {
		g.stats.Fallbacks++
		return nil, false
	}
	if m.ct != ct {
		// Spine from a dropped-and-recreated table's old wrapper: its
		// data is not this table's. Decline; the store only calls
		// Project with the live wrapper (Result.Rows checks identity),
		// so this is a defensive guard, not a rebuild trigger.
		g.stats.Fallbacks++
		g.stats.Declines++
		return nil, false
	}
	if err := g.sync(ct, m); err != nil {
		g.dropSet(m)
		g.stats.Fallbacks++
		g.stats.Declines++
		return nil, false
	}
	lo, hi := g.crackRange(m, r)
	if hi-lo != want {
		g.stats.Fallbacks++
		g.stats.Declines++
		return nil, false
	}
	out := make([][]int64, len(attrs))
	for i, a := range attrs {
		src := m.keys
		if a != r.Col {
			pv, err := g.ensurePay(ct, m, a)
			if err != nil {
				g.stats.Fallbacks++
				g.stats.Declines++
				return nil, false
			}
			src = pv.vals
		}
		out[i] = append([]int64(nil), src[lo:hi]...)
	}
	g.stats.Projections++
	return out, true
}

func setID(table, key string) string { return table + "\x00" + key }

func (g *Registry) dropSet(m *mapSet) {
	delete(g.sets, setID(m.table, m.key))
	g.pays -= len(m.pays)
	g.live.Store(int32(len(g.sets)))
}

func (g *Registry) tick() uint64 {
	g.clock++
	return g.clock
}

func (g *Registry) touchTuples(n int64) { g.stats.TuplesTouched += n }

// ensureSet returns (building on first use) the map spine of a key
// column: the key vector in base order, identity OIDs, an empty index.
func (g *Registry) ensureSet(ct *core.CrackedTable, table, key string) (*mapSet, error) {
	if m, ok := g.sets[setID(table, key)]; ok {
		return m, nil
	}
	n := ct.BaseLen()
	cols, err := ct.BaseRows(0, n, key)
	if err != nil {
		return nil, err
	}
	m := &mapSet{
		table: table, key: key, ct: ct,
		keys: cols[0], oids: make([]bat.OID, n),
		idx: &core.Index{}, synced: n,
	}
	for i := range m.oids {
		m.oids[i] = bat.OID(i)
	}
	if g.newStrategy != nil {
		m.strategy = g.newStrategy(table, key)
	}
	g.sets[setID(table, key)] = m
	g.live.Store(int32(len(g.sets)))
	return m, nil
}

// ensurePay returns (materializing on first use) one payload vector,
// stamped as most recently used, evicting over-budget vectors.
func (g *Registry) ensurePay(ct *core.CrackedTable, m *mapSet, attr string) (*payVec, error) {
	for _, p := range m.pays {
		if p.attr == attr {
			p.stamp = g.tick()
			return p, nil
		}
	}
	vals, err := ct.GatherBase(attr, m.oids)
	if err != nil {
		return nil, err
	}
	p := &payVec{attr: attr, vals: vals, stamp: g.tick()}
	m.pays = append(m.pays, p)
	g.pays++
	g.stats.Builds++
	g.evictOverBudget()
	return p, nil
}

// evictOverBudget drops globally least-recently-used payload vectors
// until the budget holds. Spines themselves survive their last payload:
// they keep serving key-only projections and stay warm for rebuilds.
func (g *Registry) evictOverBudget() {
	for g.budget > 0 && g.pays > g.budget {
		var vic *mapSet
		vicIdx := -1
		best := uint64(math.MaxUint64)
		for _, m := range g.sets {
			for i, p := range m.pays {
				if p.stamp < best {
					best, vic, vicIdx = p.stamp, m, i
				}
			}
		}
		if vic == nil {
			return
		}
		vic.pays = append(vic.pays[:vicIdx], vic.pays[vicIdx+1:]...)
		g.pays--
		g.stats.Evictions++
	}
}

// sync absorbs base rows appended since the spine's last
// synchronization, resetting the map's cut index: appended rows land at
// the tail, where they would violate every registered cut's partition
// invariant. The primary column no longer does this — its fold shifts
// the crossed cuts and keeps its index (core/update.go) — but no
// benchmark workload mixes inserts with row fetches, so the map keeps
// the reset until one does and the saving can be measured.
func (g *Registry) sync(ct *core.CrackedTable, m *mapSet) error {
	n := ct.BaseLen()
	if n == m.synced {
		return nil
	}
	if n < m.synced {
		return fmt.Errorf("sideways: base table %q shrank (%d < %d rows)", m.table, n, m.synced)
	}
	attrs := make([]string, 0, 1+len(m.pays))
	attrs = append(attrs, m.key)
	for _, p := range m.pays {
		attrs = append(attrs, p.attr)
	}
	cols, err := ct.BaseRows(m.synced, n, attrs...)
	if err != nil {
		return err
	}
	m.keys = append(m.keys, cols[0]...)
	for i := m.synced; i < n; i++ {
		m.oids = append(m.oids, bat.OID(i))
	}
	for i, p := range m.pays {
		p.vals = append(p.vals, cols[1+i]...)
	}
	m.idx.Reset()
	m.synced = n
	return nil
}

// payVals collects the live payload vectors for the aligned kernels.
func (m *mapSet) payVals() [][]int64 {
	if len(m.pays) == 0 {
		return nil
	}
	out := make([][]int64, len(m.pays))
	for i, p := range m.pays {
		out[i] = p.vals
	}
	return out
}

// pieceBounds returns the piece [lo, hi) the cut (val, incl) falls into.
func (m *mapSet) pieceBounds(val int64, incl bool) (lo, hi int) {
	lo, hi = 0, len(m.keys)
	if _, _, p, ok := m.idx.Floor(val, incl); ok {
		lo = p
	}
	if _, _, p, ok := m.idx.Ceil(val, incl); ok {
		hi = p
	}
	return lo, hi
}

// crackRange answers the inclusive-bound range r over the spine,
// cracking (and, under a strategy, consulting it) exactly like
// Column.selectLocked: index probes first, strategy consultation for
// unresolved sides, the mandatory three-way kernel when both new cuts
// share a piece, two-way cuts otherwise. Returns the answer window
// [lo, hi) — valid until the next crack, so callers copy under the same
// registry-mutex hold.
func (g *Registry) crackRange(m *mapSet, r expr.Range) (int, int) {
	loVal, loIncl := r.Low, !r.LowIncl
	hiVal, hiIncl := r.High, r.HighIncl
	if core.CompareCuts(loVal, loIncl, hiVal, hiIncl) >= 0 {
		return 0, 0
	}
	n := len(m.keys)
	posLo, okLo := 0, loVal == math.MinInt64 && !loIncl
	posHi, okHi := n, hiVal == math.MaxInt64 && hiIncl
	if !okLo {
		posLo, okLo = m.idx.Find(loVal, loIncl)
	}
	if !okHi {
		posHi, okHi = m.idx.Find(hiVal, hiIncl)
	}
	if okLo && okHi {
		return posLo, posHi
	}
	regLo, regHi := true, true
	if m.strategy != nil {
		if !okLo {
			regLo = g.advise(m, loVal, loIncl)
			posLo, okLo = m.idx.Find(loVal, loIncl)
		}
		if !okHi {
			regHi = g.advise(m, hiVal, hiIncl)
			posHi, okHi = m.idx.Find(hiVal, hiIncl)
		}
		if okLo && okHi {
			return posLo, posHi
		}
	}
	if !okLo && !okHi {
		lo1, hi1 := m.pieceBounds(loVal, loIncl)
		lo2, hi2 := m.pieceBounds(hiVal, hiIncl)
		if lo1 == lo2 && hi1 == hi2 {
			m1, m2, touched, moved := core.AlignedCrackInThree(
				m.keys, m.oids, m.payVals(), lo1, hi1, loVal, loIncl, hiVal, hiIncl)
			g.stats.Cracks++
			g.stats.TuplesTouched += touched
			g.stats.TuplesMoved += moved
			if regLo {
				m.idx.Insert(loVal, loIncl, m1)
			}
			if regHi {
				m.idx.Insert(hiVal, hiIncl, m2)
			}
			return m1, m2
		}
	}
	if !okLo {
		posLo = g.cut(m, loVal, loIncl, regLo)
	}
	if !okHi {
		posHi = g.cut(m, hiVal, hiIncl, regHi)
	}
	if posHi < posLo {
		posHi = posLo // empty under the column's value set
	}
	return posLo, posHi
}

// cut ensures the cut (val, incl) exists (cracking its piece in two) and
// returns its position, registering it unless told otherwise.
func (g *Registry) cut(m *mapSet, val int64, incl bool, register bool) int {
	if pos, ok := m.idx.Find(val, incl); ok {
		return pos
	}
	lo, hi := m.pieceBounds(val, incl)
	pos, touched, moved := core.AlignedCrackInTwo(m.keys, m.oids, m.payVals(), lo, hi, val, incl)
	g.stats.Cracks++
	g.stats.TuplesTouched += touched
	g.stats.TuplesMoved += moved
	if register {
		m.idx.Insert(val, incl, pos)
	}
	return pos
}

// advise runs the strategy consultation loop for a pending cut,
// mirroring Column.adviseLocked: advised pivots crack the spine as
// registered cuts; a degenerate pivot ends the loop with one final
// consultation at the depth cap so no-register strategies (MDD1R) keep
// their verdict while pivot-happy strategies fall back to registration.
func (g *Registry) advise(m *mapSet, val int64, incl bool) bool {
	for depth := 0; depth < maxAuxCracksPerCut; depth++ {
		lo, hi := m.pieceBounds(val, incl)
		plan := m.strategy.AdviseCut(core.NewPieceContext(
			lo, hi, len(m.keys), val, incl, depth, m.keys, g.touchTuples))
		if !plan.HasPivot {
			return plan.RegisterQuery
		}
		progressed := false
		if _, exists := m.idx.Find(plan.Pivot, false); !exists {
			g.cut(m, plan.Pivot, false, true)
			g.stats.AuxCracks++
			nlo, nhi := m.pieceBounds(val, incl)
			progressed = nhi-nlo < hi-lo
		}
		if !progressed {
			final := m.strategy.AdviseCut(core.NewPieceContext(
				lo, hi, len(m.keys), val, incl, maxAuxCracksPerCut, m.keys, g.touchTuples))
			if !final.HasPivot {
				return final.RegisterQuery
			}
			return true
		}
	}
	return true
}

// PayState is one exported payload vector.
type PayState struct {
	Attr string
	Vals []int64
}

// MapState is the complete serializable state of one map spine: the
// co-cracked vectors, the cut set, the strategy identity and RNG
// position, and every live payload vector in least-recently-used-first
// order (so a restore under a smaller budget evicts the right ones).
type MapState struct {
	Table, Key string
	Keys       []int64
	OIDs       []bat.OID
	Cuts       []core.Cut
	Strategy   *core.StrategyState
	Pays       []PayState
}

// Export snapshots every map spine, deterministically ordered by
// (table, key). The returned slices are copies.
func (g *Registry) Export() []MapState {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]string, 0, len(g.sets))
	for id := range g.sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]MapState, 0, len(ids))
	for _, id := range ids {
		m := g.sets[id]
		st := MapState{
			Table: m.table, Key: m.key,
			Keys: append([]int64(nil), m.keys...),
			OIDs: append([]bat.OID(nil), m.oids...),
			Cuts: m.idx.Cuts(),
		}
		if ss, ok := m.strategy.(core.StatefulStrategy); ok {
			s := ss.Export()
			st.Strategy = &s
		}
		pays := append([]*payVec(nil), m.pays...)
		sort.Slice(pays, func(i, j int) bool { return pays[i].stamp < pays[j].stamp })
		for _, p := range pays {
			st.Pays = append(st.Pays, PayState{Attr: p.attr, Vals: append([]int64(nil), p.vals...)})
		}
		out = append(out, st)
	}
	return out
}

// Restore rebuilds map spines from exported states, validating the
// alignment and cut invariants before accepting each (a corrupt
// snapshot must not poison projections). lookup resolves a table's
// cracked wrapper; restoreStrategy revives a strategy from its exported
// state (the registry cannot depend on internal/strategy). Restored
// payload vectors count against the budget, oldest evicted first.
func (g *Registry) Restore(states []MapState,
	lookup func(table string) (*core.CrackedTable, bool),
	restoreStrategy func(core.StrategyState) (core.CrackStrategy, error)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.budget == 0 {
		return nil // sideways disabled: warmth declined, not an error
	}
	for _, st := range states {
		ct, ok := lookup(st.Table)
		if !ok {
			return fmt.Errorf("sideways: map state for unknown table %q", st.Table)
		}
		m, err := g.restoreSet(ct, st, restoreStrategy)
		if err != nil {
			return err
		}
		if _, exists := g.sets[setID(st.Table, st.Key)]; exists {
			return fmt.Errorf("sideways: duplicate map state for %s.%s", st.Table, st.Key)
		}
		g.sets[setID(st.Table, st.Key)] = m
		g.pays += len(m.pays)
	}
	g.live.Store(int32(len(g.sets)))
	g.evictOverBudget()
	return nil
}

func (g *Registry) restoreSet(ct *core.CrackedTable, st MapState,
	restoreStrategy func(core.StrategyState) (core.CrackStrategy, error)) (*mapSet, error) {
	n := len(st.Keys)
	if len(st.OIDs) != n {
		return nil, fmt.Errorf("sideways: map %s.%s has %d keys but %d oids", st.Table, st.Key, n, len(st.OIDs))
	}
	baseLen := ct.BaseLen()
	if n > baseLen {
		return nil, fmt.Errorf("sideways: map %s.%s has %d rows, base has %d", st.Table, st.Key, n, baseLen)
	}
	// The key and every payload attribute must exist in the base (a
	// zero-row read faults on unknown columns without copying anything).
	attrs := []string{st.Key}
	for _, p := range st.Pays {
		attrs = append(attrs, p.Attr)
	}
	if _, err := ct.BaseRows(0, 0, attrs...); err != nil {
		return nil, fmt.Errorf("sideways: map %s.%s: %w", st.Table, st.Key, err)
	}
	// The OID vector must be a permutation of the synced base prefix —
	// that alignment is what makes windows valid tuples.
	seen := make([]bool, n)
	for _, o := range st.OIDs {
		if int(o) >= n || seen[o] {
			return nil, fmt.Errorf("sideways: map %s.%s oid vector is not a permutation of [0,%d)", st.Table, st.Key, n)
		}
		seen[o] = true
	}
	if err := core.VerifyCuts(st.Keys, st.Cuts); err != nil {
		return nil, fmt.Errorf("sideways: map %s.%s: %w", st.Table, st.Key, err)
	}
	idx, err := core.IndexFromSorted(st.Cuts)
	if err != nil {
		return nil, fmt.Errorf("sideways: map %s.%s: %w", st.Table, st.Key, err)
	}
	m := &mapSet{
		table: st.Table, key: st.Key, ct: ct,
		keys: append([]int64(nil), st.Keys...),
		oids: append([]bat.OID(nil), st.OIDs...),
		idx:  idx, synced: n,
	}
	switch {
	case st.Strategy != nil:
		if restoreStrategy == nil {
			return nil, fmt.Errorf("sideways: map %s.%s carries strategy state but no restorer was provided", st.Table, st.Key)
		}
		s, err := restoreStrategy(*st.Strategy)
		if err != nil {
			return nil, fmt.Errorf("sideways: map %s.%s: %w", st.Table, st.Key, err)
		}
		m.strategy = s
	case g.newStrategy != nil:
		// Stateless snapshot under a configured strategy: derive a fresh
		// deterministic instance, as first-projection creation would.
		m.strategy = g.newStrategy(st.Table, st.Key)
	}
	for _, p := range st.Pays {
		if len(p.Vals) != n {
			return nil, fmt.Errorf("sideways: map %s.%s payload %q has %d values, want %d",
				st.Table, st.Key, p.Attr, len(p.Vals), n)
		}
		m.pays = append(m.pays, &payVec{attr: p.Attr, vals: append([]int64(nil), p.Vals...), stamp: g.tick()})
	}
	return m, nil
}
