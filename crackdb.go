// Package crackdb is a self-organizing column store built on database
// cracking, a Go reproduction of M.L. Kersten and S. Manegold, "Cracking
// the Database Store" (CIDR 2005).
//
// A cracking store maintains no upfront indexes. Instead, every query is
// interpreted both as a request for a subset of the data and as advice to
// physically break ("crack") the touched columns into smaller pieces, so
// the answer becomes a contiguous region and future queries touch fewer
// superfluous tuples. The cracker index that binds the pieces together is
// built incrementally by the queries themselves — "let the query users
// pay for maintaining the access structures".
//
// # Quick start
//
//	store := crackdb.New()
//	store.CreateTable("events", "ts", "sensor", "reading")
//	store.InsertRows("events", rows)
//
//	res, err := store.Select("events", "reading", 100, 200) // cracks as a side effect
//	fmt.Println(res.Count())
//	rows, err := res.Rows("ts", "sensor") // fetch other attributes by oid
//
// Repeating or refining the range gets cheaper with every query: the
// first query pays a partition pass, later queries approach pure index
// lookups. See the package examples for complete tours and
// cmd/crackbench for the paper's experiments.
package crackdb

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
	"crackdb/internal/sideways"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
)

// Store is a cracking column store: named tables whose columns are
// adaptively reorganized by the range queries they answer. All methods
// are safe for concurrent use.
//
// The store-level mutex only guards the table registry: queries resolve
// their table under the read lock and then synchronize on that table's
// own locks, so selections on different tables never contend with each
// other (and converged lookups on the same table run in parallel under
// the column read lock — see DESIGN.md, Concurrency).
type Store struct {
	mu sync.RWMutex

	// tables is the registry: every table is its cracked wrapper from the
	// moment it is installed (installLocked, the only writer besides
	// DropTable and an image element that drops it).
	tables map[string]*table
	genSeq uint64 // the last generation installLocked stamped

	// Crack-strategy configuration for columns created after
	// SetCrackStrategy: each new cracker column's RNG word is seeded from
	// strategySeed and the column's name.
	strategyName string
	strategySeed int64

	// colOpts holds the store-wide cracker options as of the last
	// configuration change (publishOptionsLocked). A wrapper reads it each
	// time it creates a cracker column — under its own locks, where s.mu
	// cannot be taken — so a column takes the configuration current when
	// it is first cracked, whenever its table was installed.
	colOpts atomic.Pointer[[]core.Option]

	// sideways budgets the store's partial sideways-cracking maps: payload
	// vectors riding on the cracker columns, so multi-attribute projection
	// reads aligned windows sequentially instead of fetching tuples through
	// the base table one OID at a time. See internal/sideways and DESIGN.md.
	// It counts the wrappers liveTables lists; no path holding s.mu calls it.
	sideways *sideways.Registry

	// instr, when set by EnableObservability, is attached to every
	// cracker column — existing, future, and warm-restored — so query
	// latency and crack events flow into the obs registry. Guarded by mu.
	instr *core.Instr

	// autotune, when set by EnableAutotune, monitors every answered
	// selection and hot-swaps per-column crack strategies (see
	// autotune.go). Atomic: the select observer reads it lock-free.
	autotune atomic.Pointer[tuner.Tuner]

	// mark remembers what the last committed image contained, anchoring
	// delta elements (see persist.go). Guarded by mu; nil until a save is
	// committed or an Open completes.
	mark *saveMark
}

// table is one registry entry: the cracked wrapper, which owns the base
// relation, and the store-unique generation installLocked stamped it
// with, so delta dirtiness tells a drop+recreate from the table it
// replaced even when the shapes (and row counts) coincide exactly.
type table struct {
	*core.CrackedTable
	gen uint64
}

// New returns an empty store.
func New() *Store {
	s := &Store{tables: make(map[string]*table)}
	s.sideways = sideways.NewRegistry(sideways.DefaultBudget, s.liveTables)
	s.publishOptionsLocked()
	return s
}

// SetCrackStrategy selects the crack strategy for columns cracked after
// the call: "standard" (the default) or the stochastic strategy "ddr"
// (Halim et al., VLDB 2012), which keeps per-query cost near-constant
// under sequential or skewed query patterns that degrade standard
// cracking to quadratic total work. The
// seed drives each column's private RNG, making crack sequences
// reproducible; each column derives its sub-seed from its name, so a
// column first cracked after a reopen draws what it would have drawn
// without one. The setting is the caller's, not the image's: Open
// returns a store at the default, and a caller sets it again after
// every open. See DESIGN.md (Crack strategies).
func (s *Store) SetCrackStrategy(name string, seed int64) error {
	if _, err := strategy.New(name, seed); err != nil {
		return fmt.Errorf("crackdb: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strategyName = name
	s.strategySeed = seed
	s.publishOptionsLocked()
	return nil
}

// SetSidewaysBudget bounds the sideways-cracking subsystem: at most n
// payload vectors (one per projected (key, payload) attribute pair) are
// kept live, least-recently-used pairs evicted first. n = 0 disables
// sideways cracking — every projection pays the base-table fetch — and
// n < 0 removes the bound. The default is sideways.DefaultBudget.
func (s *Store) SetSidewaysBudget(n int) { s.sideways.SetBudget(n) }

// SidewaysStats reports the census and work counters of the
// sideways-cracking subsystem (see DESIGN.md, Sideways cracking).
type SidewaysStats = sideways.Stats

// SidewaysStats returns a snapshot of the sideways subsystem's counters.
// The counters are process-local and restart at zero on a warm reopen;
// see Stats for the reset semantics.
func (s *Store) SidewaysStats() SidewaysStats { return s.sideways.Snapshot() }

// FetchedTuples reports how many tuples of a table have been
// reconstructed through the base table by OID fetches — the random
// access cost sideways cracking avoids (a converged sideways projection
// leaves the counter untouched).
func (s *Store) FetchedTuples(table string) (int64, error) {
	ct, err := s.tableFor(table)
	if err != nil {
		return 0, err
	}
	return ct.FetchedTuples(), nil
}

// CreateTable registers an empty integer table with distinct column names.
func (s *Store) CreateTable(name string, cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("crackdb: table %q needs at least one column", name)
	}
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return fmt.Errorf("crackdb: table %q has duplicate column %q", name, c)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(name, relation.New(name, cols...))
}

// installLocked registers t under name — the one way into the registry
// for a created, loaded, materialized, partitioned, reunited or
// image-restored table: a taken name is refused, and so is a table or
// column name longer than an image can carry; the table is wrapped for
// cracking and stamped with a fresh generation. The caller holds s.mu.
func (s *Store) installLocked(name string, t *relation.Table) error {
	if _, exists := s.tables[name]; exists {
		return fmt.Errorf("crackdb: table %q already exists", name)
	}
	if err := durable.CheckNames(name, t.ColumnNames()); err != nil {
		return err
	}
	t.Name = name
	// Every single-range selection the wrapper answers is forwarded to
	// the auto-tuner, which classifies the bound stream and may hot-swap
	// the column's strategy (the observer fires outside all table and
	// column locks — the one point where a flip is trivially safe).
	ct := core.NewCrackedTable(t, func(c *core.Column) {
		for _, o := range *s.colOpts.Load() {
			o(c)
		}
	})
	ct.SetSelectObserver(func(r expr.Range) {
		if tn := s.autotune.Load(); tn != nil {
			s.observe(tn, ct, name, r)
		}
	})
	s.genSeq++
	s.tables[name] = &table{CrackedTable: ct, gen: s.genSeq}
	return nil
}

// DropTable removes a table and its cracked state.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("crackdb: table %q does not exist", name)
	}
	delete(s.tables, name)
	return nil
}

// InsertRows appends tuples to a table. Cracked columns absorb the new
// values as pending updates, folded in by the next query that touches
// the column (paper §7 extension). The fold keeps the cracker index —
// the cuts a batch crosses shift in place — and drops it only when
// shifting would write more tuples than re-cracking from scratch (see
// DESIGN.md, Updates); the columns' sideways payload vectors fold with
// them.
func (s *Store) InsertRows(name string, rows [][]int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("crackdb: table %q does not exist", name)
	}
	// Validate arity up front so a bad row never leaves a batch half
	// applied.
	arity := t.Base().Arity()
	for i, r := range rows {
		if len(r) != arity {
			return fmt.Errorf("crackdb: row %d arity %d, table %q has %d", i, len(r), name, arity)
		}
	}
	return appendLocked(t, core.Transpose(rows, arity))
}

// InsertColumns appends a batch held as columns — cols[j] holds the new
// values of the table's j-th column, every vector of one length — with
// one append per column: InsertRows without the transposition, for a
// caller that already holds its batch by column (the shard router). The
// store copies the vectors.
func (s *Store) InsertColumns(name string, cols [][]int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("crackdb: table %q does not exist", name)
	}
	return appendLocked(t, cols)
}

// appendLocked appends a columnar batch to t. The caller holds s.mu.
func appendLocked(t *table, cols [][]int64) error {
	if err := t.AppendColumns(cols); err != nil {
		return fmt.Errorf("crackdb: %w", err)
	}
	return nil
}

// LoadTapestry creates a table with the paper's DBtapestry generator:
// n rows, alpha columns named c0..c{alpha-1}, each a shuffled permutation
// of 1..n.
func (s *Store) LoadTapestry(name string, n, alpha int, seed int64) error {
	if n < 1 || alpha < 1 {
		return fmt.Errorf("crackdb: tapestry %dx%d invalid", n, alpha)
	}
	t := relation.Tapestry(n, alpha, seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(name, t)
}

// Tables returns the registered table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.namesLocked()
}

// namesLocked returns the registered table names, sorted. The caller
// holds s.mu (read or write).
func (s *Store) namesLocked() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// liveTables lists the store's wrappers in table-name order: the tables
// the sideways budget counts, in the order Adopt stamps them.
func (s *Store) liveTables() []*core.CrackedTable {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*core.CrackedTable
	for _, n := range s.namesLocked() {
		out = append(out, s.tables[n].CrackedTable)
	}
	return out
}

// NumRows returns a table's live cardinality (deleted tuples excluded).
func (s *Store) NumRows(name string) (int, error) {
	ct, err := s.tableFor(name)
	if err != nil {
		return 0, err
	}
	return ct.LiveLen(), nil
}

// Columns returns a table's column names.
func (s *Store) Columns(name string) ([]string, error) {
	ct, err := s.tableFor(name)
	if err != nil {
		return nil, err
	}
	return ct.Base().ColumnNames(), nil
}

// tableFor returns the cracked wrapper of a table that has the columns
// named: one read-locked lookup.
func (s *Store) tableFor(name string, cols ...string) (*core.CrackedTable, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("crackdb: table %q does not exist", name)
	}
	if err := hasColumns(t.Base(), cols...); err != nil {
		return nil, err
	}
	return t.CrackedTable, nil
}

// columnFor returns the cracker column of table.col, creating it on
// first use.
func (s *Store) columnFor(table, col string) (*core.Column, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, err
	}
	return ct.ColumnFor(col)
}

// hasColumns refuses a column table t lacks, in every entry point's words.
func hasColumns(t *relation.Table, cols ...string) error {
	for _, c := range cols {
		if !t.HasColumn(c) {
			return fmt.Errorf("crackdb: table %q has no column %q", t.Name, c)
		}
	}
	return nil
}

// baseColumnOptions materializes the store-wide cracker options except
// the strategy — the shape warm restore needs, which reattaches each
// column's own restored strategy instead of drawing a fresh one from
// the factory. The caller holds s.mu.
func (s *Store) baseColumnOptions() []core.Option {
	var opts []core.Option
	if s.instr != nil {
		opts = append(opts, core.WithInstr(s.instr))
	}
	return opts
}

// publishOptionsLocked materializes the store-wide cracker options into
// colOpts, the set every wrapper gives the columns it creates from now
// on. Every configuration change calls it. The caller holds s.mu (or is
// New).
func (s *Store) publishOptionsLocked() {
	opts := s.baseColumnOptions()
	if name := s.strategyName; name != "" && name != "standard" {
		base := s.strategySeed
		opts = append(opts, core.WithStrategyFactory(func(col string) core.CrackStrategy {
			// Validated by SetCrackStrategy; distinct per-column seeds
			// keep concurrent columns' RNG streams independent.
			h := fnv.New64a()
			h.Write([]byte(col))
			st, _ := strategy.New(name, base+int64(h.Sum64()))
			return st
		}))
	}
	s.colOpts.Store(&opts)
}

// Select answers the inclusive range query low <= col <= high, cracking
// the column as a side effect. The result references the store; use
// Rows, Values, Count or Materialize to consume it.
func (s *Store) Select(table, col string, low, high int64) (*Result, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, err
	}
	r := expr.Range{Col: col, Low: low, High: high, LowIncl: true, HighIncl: true}
	vals, oids, err := ct.SelectCopy(r)
	if err != nil {
		return nil, err
	}
	return &Result{store: s, cracked: ct, vals: vals, oids: oids, rng: r, hasRange: true}, nil
}

// Count is Select without result materialization: the query still cracks
// (it is also advice) but only the qualifying-tuple count is returned.
// It routes through the same single-entry count path CountBatch uses —
// one registry resolution, no View or Result construction.
func (s *Store) Count(table, col string, low, high int64) (int, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return 0, err
	}
	return ct.CountRange(expr.Range{Col: col, Low: low, High: high, LowIncl: true, HighIncl: true})
}

// Rows is a selection's qualifying-tuple count plus attribute fetch,
// what the shard router's SelectWhere returns (its rows in the canonical
// order core.SortRows defines) and what *Result offers in crack order.
type Rows interface {
	Count() int
	Rows(cols ...string) ([][]int64, error)
}

// Result is the answer of a Select: the qualifying values of the queried
// column plus the tuple OIDs for fetching other attributes.
type Result struct {
	store   *Store
	cracked *core.CrackedTable
	vals    []int64
	oids    []bat.OID

	// rng is the range the Select answered — the key predicate Rows
	// re-applies to read the key column's payload windows instead of
	// fetching through the base table. Results without a single range
	// predicate (SelectWhere) always fetch through the base — also when the
	// planner's driving column absorbed the whole term, which would make
	// them eligible: measured on steady_scalar's mix (ISSUE 21), serving
	// those fetches from maps left rows-only throughput where it was
	// (4 232 → 4 223 statements/s; a 250-OID columnar gather per shard is
	// already cheap). The mix it cost then (25.8 k → 17.7 k: every count
	// beside a live map took a registry mutex) it no longer would — a count
	// never sees payloads now — but a gain has to be priced by a workload
	// that sends such fetches (ROADMAP item 1(c), conj_fetch) first.
	rng      expr.Range
	hasRange bool
}

// Count returns the number of qualifying tuples.
func (r *Result) Count() int { return len(r.oids) }

// Values returns the qualifying values of the queried column. Results
// produced by SelectWhere carry no single queried column and return nil;
// use Rows to fetch attributes.
func (r *Result) Values() []int64 { return r.vals }

// Rows fetches the requested attributes of the qualifying tuples, one
// row per tuple. Row order is the store's physical (cracked) order and
// is unspecified beyond that; sort for stable presentation.
//
// When the key column's sideways payload vectors can serve the
// projection — the result came from Select and its range still holds
// exactly the tuples it selected — the column vectors are the aligned
// (key, payload) windows, read sequentially; otherwise they are gathered
// from the base table through the OIDs. Either way the vectors are
// zipped into rows once.
func (r *Result) Rows(cols ...string) ([][]int64, error) {
	if err := hasColumns(r.cracked.Base(), cols...); err != nil {
		return nil, err
	}
	// A stale Result — its table dropped (and possibly recreated) since the
	// Select — gets no payloads built on its wrapper, which the sideways
	// budget no longer counts; it falls through to the base fetch, which
	// answers from its own snapshot.
	if r.hasRange {
		if wins, ok := r.store.sideways.Project(r.cracked, r.rng, cols, r.oids); ok {
			return zipRows(wins, len(r.oids)), nil
		}
	}
	vecs, err := r.cracked.FetchColumns(r.oids, cols...)
	if err != nil {
		return nil, err
	}
	return zipRows(vecs, len(r.oids)), nil
}

// zipRows turns aligned column vectors into n rows. The rows are cut
// from one backing array: two allocations whatever n is, and a consumer
// walking the rows in order reads memory in order.
func zipRows(vecs [][]int64, n int) [][]int64 {
	w := len(vecs)
	backing := make([]int64, n*w)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	for j, vec := range vecs {
		for i, v := range vec {
			backing[i*w+j] = v
		}
	}
	return rows
}

// Materialize stores the full qualifying tuples as a new table.
func (r *Result) Materialize(name string) error {
	out, err := r.cracked.Fetch(r.oids, r.cracked.Base().ColumnNames()...)
	if err != nil {
		return err
	}
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	return r.store.installLocked(name, out)
}
