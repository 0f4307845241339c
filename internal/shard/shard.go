// Package shard partitions tables across several cracker stores so the
// query stream — which in a cracking system is also the index-building
// stream — is split into per-shard slices. Each shard is a full
// crackdb.Store with its own locks, cracker indexes and crack strategy:
// cracked columns never span shards, so a shard reorganizes only under
// the queries routed to it, and the stochastic-cracking robustness
// machinery applies shard-locally (a sequential global walk becomes a
// sequential walk per range shard, but an unrelated trickle per hash
// shard).
//
// The router is the one store the SQL executor (internal/sql) runs on:
// a one-shard router is a single store behind the router's error text
// and canonical row order, so cracksql and cracksrv answer alike. A
// selection visits the shards that can hold qualifying keys (all of them
// for hashed range predicates, a contiguous subset for range
// partitioning, exactly one for key equality): each is first offered it
// read-only on the calling goroutine, and only the shards that must
// reorganize to answer — create a cracker column, fold pending updates,
// crack — run in parallel (gather). The merged result is canonically
// ordered, byte-identical whatever the shard count (see Result).
package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/relation"
	"crackdb/internal/tuner"
)

// Options configures a sharded store.
type Options struct {
	// Shards is the number of underlying stores (default 1).
	Shards int
	// Kind is the partitioning scheme for tables created without an
	// explicit one (default Hash). A range table's bounds come from its
	// first insert batch (firstInsert).
	Kind Kind
}

func (o *Options) defaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Kind == "" {
		o.Kind = Hash
	}
}

// Store is a hash- or range-sharded collection of cracker stores. All
// methods are safe for concurrent use: the router's own mutex only
// guards the table-metadata registry, and the per-shard stores carry
// their own synchronization, so the shards a statement must reorganize
// run in parallel.
type Store struct {
	mu     sync.RWMutex
	opts   Options
	shards []*crackdb.Store
	tables map[string]*tableMeta

	// Durability (see persist.go in this package): mutators hold walMu
	// for reading around log-then-apply; Checkpoint holds it exclusively
	// so no mutation can slip between the snapshot and the WAL rotation.
	walMu   sync.RWMutex
	wal     *durable.WAL
	dataDir string

	// Observability (see obs.go in this package): nil until
	// EnableObservability wires the registries; the routing paths pay one
	// atomic load when it is off. boots counts OpenDurable boots of this
	// data directory (1 on a cold boot, so restarts = boots-1).
	obsv  atomic.Pointer[storeObs]
	boots int64

	// Checkpoint chain state (see persist.go in this package). Guarded
	// by walMu (Checkpoint holds it exclusively).
	chain     []chainElem // on-disk elements, base first; empty before the first checkpoint
	next      int         // the number the next element takes; numbers are never reused
	forceBase bool        // a number went unused: the next element must be a base
}

type tableMeta struct {
	cols   []string
	key    string
	keyIdx int
	part   partitioner
	// seeded is set once the first insert batch has landed: from then on
	// the partitioner is final (data-driven range bounds are derived from
	// the first batch and must never move under routed rows).
	seeded bool
}

// New returns an empty sharded store.
func New(opts Options) *Store {
	opts.defaults()
	shards := make([]*crackdb.Store, opts.Shards)
	for i := range shards {
		shards[i] = crackdb.New()
	}
	return &Store{opts: opts, shards: shards, tables: make(map[string]*tableMeta)}
}

// ShardCount returns the number of underlying stores.
func (s *Store) ShardCount() int { return len(s.shards) }

// Shard exposes one underlying store (per-shard configuration, tests).
func (s *Store) Shard(i int) *crackdb.Store { return s.shards[i] }

// SetCrackStrategy selects the crack strategy for columns cracked after
// the call on every shard, deriving a distinct sub-seed per shard so
// concurrent shards draw independent RNG streams. It is configuration,
// not data: nothing is logged or imaged, and each server sets its own
// after every open.
func (s *Store) SetCrackStrategy(name string, seed int64) error {
	return s.each(func(i int) error { return s.shards[i].SetCrackStrategy(name, seed+int64(i)*7919) })
}

// EnableAutotune turns on workload-adaptive strategy selection on every
// shard. The tuner runs shard-local: each shard's monitor sees only the
// bound stream routed to it, so a hostile walk over a range-partitioned
// table flips exactly the shards it visits while the rest stay on their
// defaults. Decisions surface through TuneDecisions and Gather (the
// per-shard collectors export flip counters and strategy gauges under
// their shard label).
func (s *Store) EnableAutotune(cfg tuner.Config) {
	for _, sh := range s.shards {
		sh.EnableAutotune(cfg)
	}
}

// TuneDecision is one shard-local tuner decision.
type TuneDecision struct {
	Shard int
	tuner.Decision
}

// TuneDecisions gathers every shard's per-column tuner posture, ordered
// by (table, column, shard). Nil when autotune is disabled.
func (s *Store) TuneDecisions() []TuneDecision {
	var out []TuneDecision
	for i, sh := range s.shards {
		for _, d := range sh.TuneDecisions() {
			out = append(out, TuneDecision{Shard: i, Decision: d})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Table != y.Table {
			return x.Table < y.Table
		}
		if x.Column != y.Column {
			return x.Column < y.Column
		}
		return x.Shard < y.Shard
	})
	return out
}

// ForceStrategy pins (table, col) to a strategy on every shard; the
// tuners stop auto-flipping the column until ReleaseStrategy.
func (s *Store) ForceStrategy(table, col, name string) error {
	return s.each(func(i int) error { return s.shards[i].ForceStrategy(table, col, name) })
}

// ReleaseStrategy returns a forced column to automatic control on every
// shard.
func (s *Store) ReleaseStrategy(table, col string) error {
	return s.each(func(i int) error { return s.shards[i].ReleaseStrategy(table, col) })
}

// meta resolves a table's routing metadata together with a consistent
// snapshot of its partitioner. The partitioner must be captured under
// the lock: a range table's first insert batch replaces its placeholder
// bounds, and partitioner values are immutable once published, so
// routing from the snapshot is always self-consistent.
func (s *Store) meta(table string) (*tableMeta, partitioner, error) {
	s.mu.RLock()
	m, ok := s.tables[table]
	var part partitioner
	if ok {
		part = m.part
	}
	s.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("crackdb: table %q does not exist", table)
	}
	return m, part, nil
}

// partitionerFor builds the partitioner of a new table of the given kind.
// A range table's bounds are placeholders: every shard is empty until the
// first batch, which draws the real ones from its keys (firstInsert).
func (s *Store) partitionerFor(kind Kind) (partitioner, error) {
	n := len(s.shards)
	switch kind {
	case Hash:
		return hashPart{n: n}, nil
	case Range:
		return rangePart{bounds: evenBounds(0, 0, n)}, nil
	default:
		return nil, fmt.Errorf("shard: unknown partition kind %q", kind)
	}
}

// CreateTable registers an empty table on every shard, partitioned on
// the first column with the store's default kind.
func (s *Store) CreateTable(name string, cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("crackdb: table %q needs at least one column", name)
	}
	return s.createTableKeyed(name, cols[0], s.opts.Kind, cols...)
}

// createTableKeyed registers an empty table partitioned by kind on the
// named key column (what a replayed create record carries).
func (s *Store) createTableKeyed(name, key string, kind Kind, cols ...string) error {
	keyIdx := -1
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return fmt.Errorf("crackdb: table %q has duplicate column %q", name, c)
		}
		if c == key {
			keyIdx = i
		}
	}
	if err := durable.CheckNames(name, cols); err != nil {
		return err
	}
	if keyIdx < 0 {
		return fmt.Errorf("shard: partition key %q is not a column of %q", key, name)
	}
	part, err := s.partitionerFor(kind)
	if err != nil {
		return err
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[name]; exists {
		return fmt.Errorf("crackdb: table %q already exists", name)
	}
	if err := s.logRecord(durable.Record{
		Kind: durable.KindCreate, Table: name, Cols: cols, Key: key, Part: string(kind),
	}); err != nil {
		return err
	}
	return s.createLocked(name, key, keyIdx, part, cols)
}

// createLocked installs the metadata and mirrors the table onto every
// shard, undoing partial creates on error. Caller holds s.mu; the name is free.
func (s *Store) createLocked(name, key string, keyIdx int, part partitioner, cols []string) error {
	created := make([]bool, len(s.shards))
	err := s.each(func(i int) error {
		err := s.shards[i].CreateTable(name, cols...)
		created[i] = err == nil
		return err
	})
	if err != nil {
		for i, ok := range created {
			if ok {
				s.shards[i].DropTable(name)
			}
		}
		return err
	}
	s.tables[name] = &tableMeta{cols: append([]string(nil), cols...), key: key, keyIdx: keyIdx, part: part}
	return nil
}

// DropTable removes a table from every shard.
func (s *Store) DropTable(name string) error {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("crackdb: table %q does not exist", name)
	}
	if err := s.logRecord(durable.Record{Kind: durable.KindDrop, Table: name}); err != nil {
		return err
	}
	if err := s.each(func(i int) error { return s.shards[i].DropTable(name) }); err != nil {
		return err
	}
	delete(s.tables, name)
	return nil
}

// InsertRows routes tuples to their shards by partition key and appends
// shard batches in parallel. Stream order is preserved within each
// shard, so repeated loads are deterministic. When a WAL is attached the
// whole batch is logged — and fsynced — before any row is applied, so a
// batch the caller was acked for survives a crash. The rows are
// transposed into columns once, after logging; routing and the shards'
// appends run on the columns (apply).
func (s *Store) InsertRows(name string, rows [][]int64) error {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	m, _, err := s.meta(name)
	if err != nil {
		return err
	}
	for i, r := range rows {
		if len(r) != len(m.cols) {
			return fmt.Errorf("crackdb: row %d arity %d, table %q has %d", i, len(r), name, len(m.cols))
		}
	}
	if len(rows) == 0 {
		return nil
	}
	if err := s.logRecord(durable.Record{Kind: durable.KindInsert, Table: name, Rows: rows}); err != nil {
		return err
	}
	return s.apply(name, m, core.Transpose(rows, len(m.cols)))
}

// apply lands a logged batch held as columns (cols[j] is the batch's
// values of the table's j-th column). The caller holds walMu for
// reading, so a checkpoint cannot land between the record and its rows.
func (s *Store) apply(name string, m *tableMeta, cols [][]int64) error {
	s.mu.RLock()
	part, seeded := m.part, m.seeded
	s.mu.RUnlock()
	if !seeded {
		// The first batch is applied under the table-registry lock: it may
		// replace the even range split with bounds sampled from the data,
		// and no row must route under bounds that are about to move.
		return s.firstInsert(name, m, cols)
	}
	return s.routeAndApply(name, part, m.keyIdx, cols)
}

// routeAndApply routes the batch once by its key column, scatters every
// column into one exactly sized vector per shard (stream order kept
// within each shard), and appends the per-shard columns in parallel. A
// shard that takes the whole batch appends the columns as they are.
func (s *Store) routeAndApply(name string, part partitioner, keyIdx int, cols [][]int64) error {
	keys := cols[keyIdx]
	dest := make([]int32, len(keys))
	counts := make([]int, len(s.shards))
	for i, k := range keys {
		t := part.route(k)
		dest[i] = int32(t)
		counts[t]++
	}
	if t := dest[0]; counts[t] == len(keys) {
		s.noteRoutedInserts(int(t), len(keys))
		return s.shards[t].InsertColumns(name, cols)
	}
	parts := make([][][]int64, len(s.shards))
	for t, c := range counts {
		if c > 0 {
			parts[t] = make([][]int64, len(cols))
			block := make([]int64, c*len(cols))
			for j := range cols {
				parts[t][j] = block[j*c : (j+1)*c : (j+1)*c]
			}
		}
	}
	dst, fill := make([][]int64, len(s.shards)), make([]int, len(s.shards))
	for j, col := range cols {
		for t := range dst {
			if parts[t] != nil {
				dst[t] = parts[t][j]
			}
		}
		clear(fill)
		for i, v := range col {
			t := dest[i]
			dst[t][fill[t]] = v
			fill[t]++
		}
	}
	return s.each(func(i int) error {
		if counts[i] == 0 {
			return nil
		}
		s.noteRoutedInserts(i, counts[i])
		return s.shards[i].InsertColumns(name, parts[i])
	})
}

// firstInsert lands a table's first batch. For range partitioning the
// batch's key column sets the bounds: population quantiles — near-equal
// shard populations whatever the key distribution — or, for a batch too
// small (minSampleRows) or too repetitive to sample, an even split of the
// span its keys cover. Serialized under s.mu so a racing insert cannot
// route under bounds that are being replaced; per-table this cost is
// paid exactly once. A batch that lost the first-batch race routes under
// the winner's bounds, which are final.
func (s *Store) firstInsert(name string, m *tableMeta, cols [][]int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, stillThere := s.tables[name]; !stillThere {
		return fmt.Errorf("crackdb: table %q does not exist", name)
	}
	if !m.seeded {
		m.seeded = true
		if _, isRange := m.part.(rangePart); isRange {
			keys := cols[m.keyIdx]
			bounds := sampledBounds(keys, len(s.shards))
			if bounds == nil {
				bounds = evenBounds(slices.Min(keys), slices.Max(keys), len(s.shards))
			}
			m.part = rangePart{bounds: bounds}
		}
	}
	return s.routeAndApply(name, m.part, m.keyIdx, cols)
}

// gather collects one answer per shard index in [first, last] and
// returns them in shard order (out[t-first] is shard t's) — or the
// lowest-indexed error. It is the router's only goroutine site: every
// fan-out, whatever it merges afterwards, goes through here, and so does
// the rule that decides which shards are worth a goroutine.
//
// Pass 1, for a read that may leave the shards as they are, offers read
// every target shard in turn on the calling goroutine. read answers (ok)
// from what the shard already holds, or declines having changed nothing
// (crackdb.Store.ReadWhere). A converged statement ends here: no
// goroutine, no wait. Pass 2 runs fn on the shards that declined — on
// every shard when read is nil — concurrently, since these are the
// shards that must create a cracker column, fold pending updates or
// crack. The caller runs the last of them itself while the others run,
// so one declined shard costs no goroutine. A shard's error, in either
// pass, stands for that shard.
func gather[T any](first, last int, read func(t int) (T, bool, error), fn func(t int) (T, error)) ([]T, error) {
	out := make([]T, last-first+1)
	errs := make([]error, len(out))
	declined := 0
	for i := range out {
		if read == nil {
			errs[i] = errDeclined
		} else if v, ok, err := read(first + i); err != nil {
			errs[i] = err
		} else if ok {
			out[i] = v
		} else {
			errs[i] = errDeclined
		}
		if errs[i] == errDeclined {
			declined++
		}
	}
	if declined > 0 {
		var wg sync.WaitGroup
		for i := range errs {
			if errs[i] != errDeclined {
				continue
			}
			if declined--; declined == 0 {
				out[i], errs[i] = fn(first + i)
				break
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = fn(first + i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// errDeclined marks, between gather's passes, a shard pass 2 must run.
// It is never returned.
var errDeclined = errors.New("shard: declined")

// each is gather over every shard for fan-outs with nothing to merge.
func (s *Store) each(fn func(i int) error) error {
	_, err := gather(0, len(s.shards)-1, nil, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}

// sum folds per-shard counts.
func sum(counts []int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// check rejects the conditions a single crackdb.Store rejects — an
// unknown operator or column — in the order it checks them, operator
// then column, condition by condition, and with the same error text. The
// router runs it before any short-cut that answers without a shard: a
// conjunction whose key constraint is unsatisfiable reaches no shard,
// yet it must still name real columns.
func (m *tableMeta) check(table string, conds []crackdb.Cond) error {
	for i, c := range conds {
		if _, _, _, err := crackdb.Interval(c.Col, conds[i:i+1]); err != nil {
			return err
		}
		if err := m.hasColumn(table, c.Col); err != nil {
			return err
		}
	}
	return nil
}

func (m *tableMeta) hasColumn(table, col string) error {
	if !slices.Contains(m.cols, col) {
		return fmt.Errorf("crackdb: table %q has no column %q", table, col)
	}
	return nil
}

// targets resolves which shards a conjunction must visit, routing
// through the partitioner snapshot the caller captured via meta. The
// conditions on the key fold into one interval; a <> on the key narrows
// nothing — it only widens the shard set, never misses a tuple — and an
// unsatisfiable key constraint reaches no shard (empty).
func (m *tableMeta) targets(part partitioner, conds []crackdb.Cond) (first, last int, empty bool) {
	lo, hi, _, err := crackdb.Interval(m.key, conds)
	if err != nil { // not reached: every caller runs check first
		lo, hi = math.MinInt64, math.MaxInt64
	}
	if lo > hi {
		return 0, -1, true
	}
	first, last = part.span(lo, hi)
	return first, last, false
}

// Delete tombstones the tuples matching the conjunction on every target
// shard. Like InsertRows, the logical delete is logged once at the
// router — before any shard applies it — so replay (and replication)
// re-routes the predicate instead of re-reading per-shard effects.
func (s *Store) Delete(table string, conds ...crackdb.Cond) (int, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	m, part, err := s.meta(table)
	if err != nil {
		return 0, err
	}
	// Checked before the record is logged, so the log never holds a
	// delete a single store would refuse.
	if err := m.check(table, conds); err != nil {
		return 0, err
	}
	wconds := make([]durable.Cond, len(conds))
	for i, c := range conds {
		wconds[i] = durable.Cond{Col: c.Col, Op: c.Op, Val: c.Val}
	}
	if err := s.logRecord(durable.Record{Kind: durable.KindDelete, Table: table, Conds: wconds}); err != nil {
		return 0, err
	}
	first, last, empty := m.targets(part, conds)
	if empty {
		return 0, nil
	}
	counts, err := gather(first, last, nil, func(t int) (int, error) {
		return s.shards[t].Delete(table, conds...)
	})
	return sum(counts), err
}

// SelectWhere fans the conjunction out to the shards whose key interval
// overlaps the predicates and merges their answers. Each target shard
// receives the full conjunction, so its cracker sees exactly the
// workload slice routed to it.
func (s *Store) SelectWhere(table string, conds ...crackdb.Cond) (crackdb.Rows, error) {
	m, part, err := s.meta(table)
	if err != nil {
		return nil, err
	}
	if err := m.check(table, conds); err != nil {
		return nil, err
	}
	first, last, empty := m.targets(part, conds)
	if empty {
		return &Result{table: table, m: m}, nil
	}
	s.noteRoutedQueries(first, last)
	parts, err := gather(first, last, func(t int) (*crackdb.Result, bool, error) {
		_, res, ok, err := s.shards[t].ReadWhere(table, false, conds...)
		return res, ok, err
	}, func(t int) (*crackdb.Result, error) {
		return s.shards[t].SelectWhere(table, conds...)
	})
	if err != nil {
		return nil, err
	}
	return &Result{table, m, parts}, nil
}

// CountWhere sums the qualifying-tuple counts of the target shards.
func (s *Store) CountWhere(table string, conds ...crackdb.Cond) (int, error) {
	m, part, err := s.meta(table)
	if err != nil {
		return 0, err
	}
	if err := m.check(table, conds); err != nil {
		return 0, err
	}
	first, last, empty := m.targets(part, conds)
	if empty {
		return 0, nil
	}
	s.noteRoutedQueries(first, last)
	counts, err := gather(first, last, func(t int) (int, bool, error) {
		n, _, ok, err := s.shards[t].ReadWhere(table, true, conds...)
		return n, ok, err
	}, func(t int) (int, error) {
		return s.shards[t].CountWhere(table, conds...)
	})
	return sum(counts), err
}

// GroupBy runs the Ω cracker on every shard (each clusters its slice)
// and merges the per-shard group counts by value.
func (s *Store) GroupBy(table, col string) ([]crackdb.GroupInfo, error) {
	if _, _, err := s.meta(table); err != nil {
		return nil, err
	}
	s.noteRoutedQueries(0, len(s.shards)-1)
	parts, err := gather(0, len(s.shards)-1, nil, func(i int) ([]crackdb.GroupInfo, error) {
		return s.shards[i].GroupBy(table, col)
	})
	if err != nil {
		return nil, err
	}
	merged := make(map[int64]int)
	for _, gs := range parts {
		for _, g := range gs {
			merged[g.Value] += g.Count
		}
	}
	out := make([]crackdb.GroupInfo, 0, len(merged))
	for v, c := range merged {
		out = append(out, crackdb.GroupInfo{Value: v, Count: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Value < out[b].Value })
	return out, nil
}

// Columns returns a table's column names.
func (s *Store) Columns(table string) ([]string, error) {
	m, _, err := s.meta(table)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), m.cols...), nil
}

// Tables returns the registered table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumRows sums a table's cardinality over the shards.
func (s *Store) NumRows(table string) (int, error) {
	if _, _, err := s.meta(table); err != nil {
		return 0, err
	}
	counts, err := gather(0, len(s.shards)-1, nil, func(i int) (int, error) {
		return s.shards[i].NumRows(table)
	})
	return sum(counts), err
}

// PartitionInfo describes one table's routing.
type PartitionInfo struct {
	Table  string
	Key    string
	Scheme string
	Shards int
}

// Partitions lists the routing of every table, sorted by name.
func (s *Store) Partitions() []PartitionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]PartitionInfo, 0, len(s.tables))
	for name, m := range s.tables {
		out = append(out, PartitionInfo{Table: name, Key: m.key, Scheme: m.part.describe(), Shards: len(s.shards)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}

// ShardStats returns one column's crack counters per shard, indexed by
// shard. A shard that never saw a query on the column reports zeros.
func (s *Store) ShardStats(table, col string) ([]crackdb.ColumnStats, error) {
	if _, _, err := s.meta(table); err != nil {
		return nil, err
	}
	return gather(0, len(s.shards)-1, nil, func(i int) (crackdb.ColumnStats, error) {
		return s.shards[i].Stats(table, col)
	})
}

// LoadTapestry creates a table with the paper's DBtapestry generator
// (n rows, alpha shuffled permutation columns c0..c{alpha-1}) and
// distributes it on c0: the generated columns are routed once by c0,
// scattered into one vector per shard and column, and appended by every
// shard in parallel (routeAndApply) — no row is ever built. Range
// partitioning samples its bounds from c0, a permutation of [1, n], so
// the shards split the key domain evenly. The load is logged as one
// tapestry record — replay regenerates the rows from (n, alpha, seed)
// instead of reading n×alpha values back from the log.
func (s *Store) LoadTapestry(name string, n, alpha int, seed int64) error {
	if n < 1 || alpha < 1 {
		return fmt.Errorf("shard: tapestry %dx%d invalid", n, alpha)
	}
	if err := durable.CheckNames(name, nil); err != nil {
		return err
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	t := relation.Tapestry(n, alpha, seed)
	names := t.ColumnNames()
	part, err := s.partitionerFor(s.opts.Kind)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, exists := s.tables[name]; exists {
		s.mu.Unlock()
		return fmt.Errorf("crackdb: table %q already exists", name)
	}
	if err := s.logRecord(durable.Record{
		Kind: durable.KindTapestry, Table: name, N: n, Alpha: alpha, Seed: seed,
	}); err != nil {
		s.mu.Unlock()
		return err
	}
	err = s.createLocked(name, names[0], 0, part, names)
	m := s.tables[name]
	s.mu.Unlock()
	if err != nil {
		return err
	}
	cols := make([][]int64, len(t.Cols))
	for j, c := range t.Cols {
		cols[j] = c.Data.Ints()
	}
	return s.apply(name, m, cols)
}

// Result is a selection merged across shards. Count is the sum of the
// per-shard counts; Rows concatenates the per-shard tuples without
// copying them (the merged slice holds each shard's row headers, which
// point into that shard's one backing array) and sorts the merged set
// into the canonical lexicographic order (core.SortRows: a co-sort of
// first cells and row indices, so no tuple is compared through its
// header unless first cells tie) — a shard's physical crack order
// depends on its private query history, so canonical ordering is what
// makes a sharded result byte-identical to a single store's for any
// shard count.
type Result struct {
	table string
	m     *tableMeta
	parts []*crackdb.Result
}

// Count returns the number of qualifying tuples across all shards.
func (r *Result) Count() int {
	total := 0
	for _, p := range r.parts {
		total += p.Count()
	}
	return total
}

// Rows fetches the requested attributes of the qualifying tuples from
// every shard and returns them canonically ordered.
func (r *Result) Rows(cols ...string) ([][]int64, error) {
	for _, c := range cols { // a result no shard answered still checks them
		if err := r.m.hasColumn(r.table, c); err != nil {
			return nil, err
		}
	}
	total := 0
	for _, p := range r.parts {
		total += p.Count()
	}
	out := make([][]int64, 0, total)
	for _, p := range r.parts {
		rows, err := p.Rows(cols...)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	core.SortRows(out)
	return out, nil
}

var _ crackdb.Rows = (*Result)(nil)
