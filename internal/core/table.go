package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// CrackedTable adapts cracking to an n-ary relation: each attribute gets
// its own cracker column, created lazily the first time a query filters
// on it. This mirrors the paper's position of the cracker "between the
// semantic analyzer and the query optimizer": the selection predicates of
// each incoming query are used as cracking advice for the columns they
// touch, and other attributes are fetched through the surrogate OIDs.
type CrackedTable struct {
	mu   sync.RWMutex // guards cols; lookups of existing columns take the read lock
	base *relation.Table
	cols map[string]*Column
	opts []Option

	// baseMu guards the base relation: queries read it concurrently
	// (attribute fetches, post-filtering, cracker-column creation) while
	// AppendColumns extends it exclusively. Lock order: mu before baseMu.
	baseMu sync.RWMutex

	// tomb (guarded by baseMu) is the table-level tombstone set. Deleted
	// tuples stay in the base relation — removing them would renumber the
	// surrogate OIDs every cracker column and payload vector is aligned on —
	// and are instead excluded at the two places a query can reach them:
	// cracker columns drop them at consolidation (Column.Delete is
	// forwarded per delete, or applied at creation for columns cracked
	// later), and the no-advice base scan skips them in filterOIDs.
	tomb map[bat.OID]struct{}

	// selectObs, when set, is invoked after every single-range selection
	// with the range that was answered — the hook the store's auto-tuner
	// watches bound streams through. Set it before the table is shared
	// between goroutines (the store wires it at wrapper creation); it
	// runs outside every table and column lock.
	selectObs func(r expr.Range)

	// fetched counts tuples materialized through the base table by Fetch
	// — the random-access reconstruction cost sideways cracking exists to
	// avoid, and the quantity the warm-projection tests pin at zero.
	fetched atomic.Int64
}

// NewCrackedTable wraps a relation for adaptive querying. Options are
// applied to every cracker column the table creates.
func NewCrackedTable(t *relation.Table, opts ...Option) *CrackedTable {
	return &CrackedTable{
		base: t,
		cols: make(map[string]*Column),
		opts: opts,
		tomb: make(map[bat.OID]struct{}),
	}
}

// Base returns the underlying relation. Callers must not mutate it while
// queries run; use AppendColumns for growth.
func (ct *CrackedTable) Base() *relation.Table { return ct.base }

// baseLen reads the base cardinality under the read lock.
func (ct *CrackedTable) baseLen() int {
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	return ct.base.Len()
}

// ColumnFor returns (creating on first use) the cracker column for attr.
// The common case — the column already exists — is a read-locked map
// lookup, so queries on different attributes (or tables) never serialize
// here; only first-touch creation takes the write lock.
func (ct *CrackedTable) ColumnFor(attr string) (*Column, error) {
	ct.mu.RLock()
	c, ok := ct.cols[attr]
	ct.mu.RUnlock()
	if ok {
		return c, nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if c, ok := ct.cols[attr]; ok { // re-check: lost the creation race
		return c, nil
	}
	b, err := ct.base.Column(attr)
	if err != nil {
		return nil, err
	}
	ct.baseMu.RLock()
	c = NewColumn(ct.base.Name+"."+attr, b.Ints(), ct.opts...)
	for oid := range ct.tomb { // the column is born covering deleted rows
		c.Delete(oid)
	}
	ct.baseMu.RUnlock()
	ct.cols[attr] = c
	return c, nil
}

// Column returns the existing cracker column for attr without creating
// one — the non-faulting lookup the durability snapshot walks.
func (ct *CrackedTable) Column(attr string) (*Column, bool) {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	c, ok := ct.cols[attr]
	return c, ok
}

// ReplaceColumn installs a reconstructed cracker column
// (ColumnFromState) for attr, displacing any live column and the payload
// vectors it carried. The attribute must exist in the base relation, and
// the column's tuple count must match the base cardinality — OID
// alignment is what makes fetches through the surrogate key correct.
func (ct *CrackedTable) ReplaceColumn(attr string, c *Column) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.baseMu.RLock()
	hasCol := ct.base.HasColumn(attr)
	liveLen := ct.base.Len() - len(ct.tomb)
	ct.baseMu.RUnlock()
	if !hasCol {
		return fmt.Errorf("core: table %q has no column %q to restore", ct.base.Name, attr)
	}
	// Column.Len counts live tuples (deletes excluded), so the alignment
	// check is against the base cardinality net of tombstones. Restore
	// tombstones (RestoreTombstones) before restoring columns.
	if got := c.Len(); got != liveLen {
		return fmt.Errorf("core: restored column %q has %d live tuples, base has %d", attr, got, liveLen)
	}
	ct.cols[attr] = c
	return nil
}

// CrackedColumns returns the attributes that currently have a cracker
// column (i.e. have been filtered on at least once), sorted — images
// list columns in this order, and two images of the same state must be
// byte-identical.
func (ct *CrackedTable) CrackedColumns() []string {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	out := make([]string, 0, len(ct.cols))
	for name := range ct.cols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetSelectObserver registers a callback fired after every range
// selection the table answers, with the answered range. It must be
// set before the table is shared between goroutines; pass nil to clear.
func (ct *CrackedTable) SetSelectObserver(f func(r expr.Range)) { ct.selectObs = f }

// FetchedTuples returns the number of tuples reconstructed through the
// base table by Fetch since creation.
func (ct *CrackedTable) FetchedTuples() int64 { return ct.fetched.Load() }

// SelectCopy answers a range query returning copies of the qualifying
// values and OIDs, taken under the column lock — safe under concurrent
// cracking of the same column.
func (ct *CrackedTable) SelectCopy(r expr.Range) ([]int64, []bat.OID, error) {
	c, err := ct.ColumnFor(r.Col)
	if err != nil {
		return nil, nil, err
	}
	vals, oids := c.SelectCopy(r.Low, r.High, r.LowIncl, r.HighIncl)
	if ct.selectObs != nil {
		ct.selectObs(r)
	}
	return vals, oids, nil
}

// filterOIDs keeps, in place and in order, the live candidates that
// satisfy the term, reading only the base BATs of the term's columns.
// The candidates must be the caller's own copy.
func (ct *CrackedTable) filterOIDs(cands []bat.OID, term expr.Term) ([]bat.OID, error) {
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	cols := make([][]int64, len(term))
	for i, p := range term {
		b, err := ct.base.Column(p.Col)
		if err != nil {
			return nil, err
		}
		cols[i] = b.Ints()
	}
	out := cands[:0]
next:
	for _, oid := range cands {
		if _, dead := ct.tomb[oid]; dead {
			continue
		}
		for i, p := range term {
			if !p.Match(cols[i][oid]) {
				continue next
			}
		}
		out = append(out, oid)
	}
	return out, nil
}

func allOIDs(n int) []bat.OID {
	out := make([]bat.OID, n)
	for i := range out {
		out[i] = bat.OID(i)
	}
	return out
}

// gatherLocked is the base-fetch kernel, tuple reconstruction through
// the surrogate key: one vector per attribute, aligned with oids, read
// straight out of the base BATs' tails. The vectors are cut from one
// backing array, each capped at its own length so a caller that appends
// to one cannot run into its neighbour. The caller holds baseMu.
func (ct *CrackedTable) gatherLocked(oids []bat.OID, attrs []string) ([][]int64, error) {
	srcs := make([][]int64, len(attrs))
	for j, a := range attrs {
		b, err := ct.base.Column(a)
		if err != nil {
			return nil, err
		}
		srcs[j] = b.Ints()
	}
	baseLen := ct.base.Len()
	for _, oid := range oids {
		if int(oid) >= baseLen {
			return nil, fmt.Errorf("core: fetch of unknown oid %d", oid)
		}
	}
	n := len(oids)
	backing := make([]int64, n*len(attrs))
	vecs := make([][]int64, len(attrs))
	for j, src := range srcs {
		vec := backing[j*n : (j+1)*n : (j+1)*n]
		for i, oid := range oids {
			vec[i] = src[oid]
		}
		vecs[j] = vec
	}
	return vecs, nil
}

// FetchColumns materializes the requested attributes for the given OIDs
// column-wise: vecs[j][i] is attribute attrs[j] of tuple oids[i].
func (ct *CrackedTable) FetchColumns(oids []bat.OID, attrs ...string) ([][]int64, error) {
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	vecs, err := ct.gatherLocked(oids, attrs)
	if err != nil {
		return nil, err
	}
	ct.fetched.Add(int64(len(oids)))
	return vecs, nil
}

// Fetch is FetchColumns wrapped as a relation, in OID argument order.
func (ct *CrackedTable) Fetch(oids []bat.OID, attrs ...string) (*relation.Table, error) {
	vecs, err := ct.FetchColumns(oids, attrs...)
	if err != nil {
		return nil, err
	}
	name := ct.base.Name + "_result"
	cols := make([]relation.Column, len(attrs))
	for j, a := range attrs {
		cols[j] = relation.Column{Name: a, Data: bat.FromInts(name+"_"+a, vecs[j])}
	}
	return relation.FromColumns(name, cols...)
}

// AttachPayload gives key's cracker column a payload vector of attr —
// one gather through the column's current OID order, under the base read
// lock (lock order base → column) — or, when it already has one, stamps
// it. The gather is construction, not per-query reconstruction: it does
// not count toward FetchedTuples.
func (ct *CrackedTable) AttachPayload(key, attr string, stamp uint64) (built bool, err error) {
	c, err := ct.ColumnFor(key)
	if err != nil {
		return false, err
	}
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	b, err := ct.base.Column(attr)
	if err != nil {
		return false, err
	}
	return c.attachPayload(attr, b.Ints(), stamp)
}

// AppendColumns extends the base relation by a batch held as columns —
// cols[j] holds the new values of the table's j-th attribute, every
// vector of one length — with one append per base column, and queues the
// new values as pending inserts on every existing cracker column,
// preserving OID alignment (a column's next OID equals the base length
// at its creation, and every append is forwarded exactly once). Columns
// created later see the grown base directly. Each column's payload
// vectors receive their attributes' values of the new rows in the same
// call, so the fold never has to read the base. The vectors are copied:
// the caller keeps them. Appends exclude concurrent readers of the base
// table; cracker columns synchronize on their own mutexes.
func (ct *CrackedTable) AppendColumns(cols [][]int64) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.baseMu.Lock()
	defer ct.baseMu.Unlock()
	if len(cols) != ct.base.Arity() {
		return fmt.Errorf("core: batch of %d columns, table %q has %d", len(cols), ct.base.Name, ct.base.Arity())
	}
	for j, c := range cols {
		if len(c) != len(cols[0]) {
			return fmt.Errorf("core: batch column %d has %d values, column 0 has %d", j, len(c), len(cols[0]))
		}
	}
	fromLen := ct.base.Len()
	for j, c := range ct.base.Cols {
		c.Data.AppendInts(cols[j]...)
	}
	tail := func(attr string) []int64 {
		b, _ := ct.base.Column(attr) // a cracked or payload attribute is a base column
		return b.Ints()[fromLen:]
	}
	for attr, col := range ct.cols {
		col.appendRows(tail(attr), tail)
	}
	return nil
}

// Transpose turns a batch of rows of the given arity into the columns
// AppendColumns takes, all backed by one block. The caller has checked
// every row's arity.
func Transpose(rows [][]int64, arity int) [][]int64 {
	n := len(rows)
	block := make([]int64, n*arity)
	cols := make([][]int64, arity)
	for j := range cols {
		col := block[j*n : (j+1)*n : (j+1)*n]
		for i, r := range rows {
			col[i] = r[j]
		}
		cols[j] = col
	}
	return cols
}

// DeleteOIDs tombstones the given tuples: each OID is recorded in the
// table-level tombstone set and forwarded to every existing cracker
// column (columns created later inherit the set at birth). The base
// relation keeps the rows — OID stability is what keeps the columns and
// their payload vectors aligned — but no query path returns them again. Returns
// how many OIDs were newly deleted (already-dead or out-of-range OIDs
// are skipped).
func (ct *CrackedTable) DeleteOIDs(oids []bat.OID) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.baseMu.Lock()
	defer ct.baseMu.Unlock()
	n := 0
	baseLen := ct.base.Len()
	for _, oid := range oids {
		if int(oid) >= baseLen {
			continue
		}
		if _, dead := ct.tomb[oid]; dead {
			continue
		}
		ct.tomb[oid] = struct{}{}
		n++
		for _, col := range ct.cols {
			col.Delete(oid)
		}
	}
	return n
}

// RestoreTombstones reinstates a snapshot's tombstone set. Call it after
// the base relation is loaded and before any column is restored or
// created: restored columns carry their own deleted state and are
// length-checked against the live cardinality this call establishes.
func (ct *CrackedTable) RestoreTombstones(oids []bat.OID) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.baseMu.Lock()
	defer ct.baseMu.Unlock()
	if len(ct.cols) != 0 {
		return fmt.Errorf("core: table %q already has cracker columns, refusing tombstone restore", ct.base.Name)
	}
	baseLen := ct.base.Len()
	for _, oid := range oids {
		if int(oid) >= baseLen {
			return fmt.Errorf("core: tombstone oid %d outside base of %d rows", oid, baseLen)
		}
		ct.tomb[oid] = struct{}{}
	}
	return nil
}

// Tombstones returns the deleted OIDs in ascending order — the set a
// snapshot records so a restore (or a replica bootstrap) rebuilds the
// same live view.
func (ct *CrackedTable) Tombstones() []bat.OID {
	ct.baseMu.RLock()
	out := make([]bat.OID, 0, len(ct.tomb))
	for oid := range ct.tomb {
		out = append(out, oid)
	}
	ct.baseMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveLen returns the number of live (non-tombstoned) tuples.
func (ct *CrackedTable) LiveLen() int {
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	return ct.base.Len() - len(ct.tomb)
}

// Stats aggregates the work counters over all cracker columns. Like
// Column.Stats, the counters are process-local: a warm reopen restores
// the physical crack state but restarts every counter at zero (see
// Column.Stats for how the obs layer marks the discontinuity).
func (ct *CrackedTable) Stats() Stats {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	var total Stats
	for _, c := range ct.cols {
		s := c.Stats()
		total.Queries += s.Queries
		total.Cracks += s.Cracks
		total.AuxCracks += s.AuxCracks
		total.IndexLookups += s.IndexLookups
		total.TuplesMoved += s.TuplesMoved
		total.TuplesTouched += s.TuplesTouched
		total.Consolidations += s.Consolidations
	}
	return total
}
