// Package sideways is the resource discipline of partial sideways
// cracking (Idreos, Kersten & Manegold's follow-up for multi-attribute
// queries). The maps themselves are not here: a map of (key, payload) is
// a payload vector on the key's cracker column (core/payload.go), aligned
// with the column's values and OIDs and permuted by the column's own
// crack kernels, update folds and delete compactions, so projecting the
// payload for a key range is a sequential copy of the answer window
// instead of one random base-table access per tuple — and a selection
// that projects nothing never learns that payloads exist.
//
// What "partial" means lives here: payload vectors are gathered lazily,
// by the first projection that would use them, and the number alive is
// bounded by a budget with least-recently-used eviction. The registry
// mutex serializes gathers and evictions only; a projection over live
// payloads takes the column's lock (the read lock when both cuts exist)
// and stamps what it read with an atomic clock. Lock order: registry →
// table → base → column; nothing is evicted under a column lock. The
// registry keeps no tables of its own: it counts what the store's live
// list holds, and asks for that list before taking its mutex, so the
// store's lock and the registry's are never held together.
//
// Payloads follow every mutation the store offers — appended rows bring
// their payload values, deletes compact all vectors together — and the
// store-level projection path falls back to the base-table fetch whenever
// a projection cannot be served exactly (budget exhausted, a selection
// gone stale, unknown attribute).
package sideways

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crackdb/internal/bat"
	"crackdb/internal/core"
)

// DefaultBudget is the default bound on live payload vectors per
// registry. Each vector costs 8 bytes per base row; 16 vectors over a
// 1M-row table is 128 MB at most — plenty for a handful of hot
// attribute pairs while keeping a scan-everything workload from
// shadow-copying the whole store.
const DefaultBudget = 16

// Stats is a point-in-time snapshot of the registry's work counters.
type Stats struct {
	Sets        int   // key columns carrying at least one payload vector
	Pays        int   // live payload vectors (the budgeted quantity)
	Builds      int64 // payload vectors gathered from the base table
	Evictions   int64 // payload vectors dropped by the LRU budget
	Projections int64 // multi-attribute projections served from payloads
	Fallbacks   int64 // projections declined (budget, staleness, unknown attr)
	Declines    int64 // Fallbacks subset: the payloads were affordable but the
	// projection was refused (stale selection, unknown attribute) — the
	// signal that maps are churning rather than merely absent.
}

// Registry budgets the payload vectors of one store. All methods are
// safe for concurrent use.
type Registry struct {
	budget atomic.Int64  // max live payload vectors; 0 disables, < 0 unbounded
	clock  atomic.Uint64 // LRU stamps

	// live lists the wrappers the store holds — the tables whose columns
	// the census counts. It is called before mu is taken, never under it.
	live func() []*core.CrackedTable

	mu sync.Mutex // serializes gathers and evictions

	builds, evictions, projections, fallbacks, declines atomic.Int64
}

// NewRegistry returns a registry with the given payload-vector budget
// (0 disables sideways cracking entirely; < 0 removes the bound) over the
// tables live lists.
func NewRegistry(budget int, live func() []*core.CrackedTable) *Registry {
	g := &Registry{live: live}
	g.budget.Store(int64(budget))
	return g
}

// SetBudget adjusts the payload-vector budget. Shrinking evicts down to
// the new bound immediately; 0 drops every payload and disables the
// subsystem.
func (g *Registry) SetBudget(n int) {
	tables := g.live()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.budget.Store(int64(n))
	g.evictLocked(tables)
}

// Snapshot returns the current work counters and payload census. The
// census is read off the live columns of the live tables, so it follows
// whatever replaced, dropped or reorganized them.
func (g *Registry) Snapshot() Stats {
	live := census(g.live())
	st := Stats{
		Pays:        len(live),
		Builds:      g.builds.Load(),
		Evictions:   g.evictions.Load(),
		Projections: g.projections.Load(),
		Fallbacks:   g.fallbacks.Load(),
		Declines:    g.declines.Load(),
	}
	for i, p := range live {
		if i == 0 || p.col != live[i-1].col {
			st.Sets++
		}
	}
	return st
}

// Project serves a multi-attribute projection from the key column's
// payload vectors: the columnar windows of the requested attributes for
// the range r on key, each a fresh copy, mutually aligned element by
// element. sel is the OID answer of the caller's selection; when the
// range no longer holds exactly those tuples (rows were appended into it
// or deleted from it since) the projection declines, and the caller falls
// back to the base-table fetch. Missing payload vectors are gathered
// first, the budget permitting. ok=false never leaves partial state
// behind.
func (g *Registry) Project(ct *core.CrackedTable, key string, r core.Range, attrs []string, sel []bat.OID) ([][]int64, bool) {
	if g.budget.Load() == 0 {
		return nil, false
	}
	c, err := ct.ColumnFor(key)
	if err != nil {
		g.fallbacks.Add(1)
		return nil, false
	}
	wins, st := c.Project(key, r, attrs, sel, g.clock.Add(1))
	if st == core.PayloadMissing {
		if !g.build(ct, key, attrs) {
			g.fallbacks.Add(1)
			return nil, false
		}
		wins, st = c.Project(key, r, attrs, sel, g.clock.Add(1))
	}
	if st != core.Projected {
		g.fallbacks.Add(1)
		g.declines.Add(1)
		return nil, false
	}
	g.projections.Add(1)
	return wins, true
}

// build gathers the payload vectors attrs needs on key's column and
// evicts down to the budget. Every needed vector, new or not, takes the
// newest stamp, so with needed <= budget none of them is the victim. A
// wrapper the store no longer holds — a stale result's, its table dropped
// or replaced — gets nothing: the census would never count it.
func (g *Registry) build(ct *core.CrackedTable, key string, attrs []string) bool {
	tables := g.live()
	if !slices.Contains(tables, ct) {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var needed []string
	for _, a := range attrs {
		if a != key && !slices.Contains(needed, a) {
			needed = append(needed, a)
		}
	}
	if budget := g.budget.Load(); budget == 0 || budget > 0 && int64(len(needed)) > budget {
		return false
	}
	stamp := g.clock.Add(1)
	for _, a := range needed {
		built, err := ct.AttachPayload(key, a, stamp)
		if err != nil {
			g.declines.Add(1)
			return false
		}
		if built {
			g.builds.Add(1)
		}
	}
	g.evictLocked(tables)
	return true
}

// livePay is one live payload vector found by the census.
type livePay struct {
	col  *core.Column
	attr string
	used uint64
}

// census lists the live payload vectors of tables, grouped by column.
func census(tables []*core.CrackedTable) []livePay {
	var live []livePay
	for _, ct := range tables {
		for _, key := range ct.CrackedColumns() {
			c, ok := ct.Column(key)
			if !ok {
				continue
			}
			for _, p := range c.Payloads() {
				live = append(live, livePay{col: c, attr: p.Attr, used: p.Used})
			}
		}
	}
	return live
}

// evictLocked drops least-recently-used payload vectors of tables until
// the budget holds (all of them under budget 0).
func (g *Registry) evictLocked(tables []*core.CrackedTable) {
	budget := g.budget.Load()
	if budget < 0 {
		return
	}
	live := census(tables)
	sort.Slice(live, func(i, j int) bool { return live[i].used < live[j].used })
	for _, p := range live[:max(len(live)-int(budget), 0)] {
		if p.col.DropPayload(p.attr) {
			g.evictions.Add(1)
		}
	}
}

// Adopt takes over the payload vectors that restored columns brought
// along (core.CrackedTable.ColumnFromState gathers them unstamped). Every
// unstamped vector is stamped from the registry clock — table by table
// in the order live lists them, column by column, each column's in their
// stored least-recently-used-first order — and then the registry evicts
// down to the budget.
func (g *Registry) Adopt() {
	tables := g.live()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ct := range tables {
		for _, key := range ct.CrackedColumns() {
			c, ok := ct.Column(key)
			if !ok {
				continue
			}
			for _, p := range c.Payloads() {
				if p.Used == 0 {
					// Present, and of a column ReplaceColumn checked: this
					// only stamps, and cannot fail.
					_, _ = ct.AttachPayload(key, p.Attr, g.clock.Add(1))
				}
			}
		}
	}
	g.evictLocked(tables)
}
