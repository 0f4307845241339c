package crackdb

import "crackdb/internal/core"

// Rows is the result surface every Backend implementation returns from a
// selection: a qualifying-tuple count plus attribute fetch. A Backend's
// Rows come back in the canonical order core.SortRows defines — what a
// router's merge yields — so a statement answers alike on every backend.
type Rows interface {
	Count() int
	Rows(cols ...string) ([][]int64, error)
}

// Backend is the unified query surface of a cracking store. One embedded
// *Store (via Store.Backend) and a sharded router (internal/shard) both
// present this interface, so the SQL engine, the figures and benchmarks
// program against a single shape. Nothing implements it over the wire: a
// remote client sends SQL through internal/server's Client, and a
// replicated deployment is every member cracking its own store, so there
// is no cluster-wide Backend to speak.
//
// Every query method doubles as cracking advice on whichever physical
// store answers it; implementations must be safe for concurrent use, and
// must answer a failed call with the single store's error text.
type Backend interface {
	// Schema and mutation. Delete removes the tuples matching the
	// conjunction (all tuples when empty) and reports how many went.
	CreateTable(name string, cols ...string) error
	DropTable(name string) error
	InsertRows(table string, rows [][]int64) error
	Delete(table string, conds ...Cond) (int, error)

	// Single-range selection (the paper's crack-on-select primitive) and
	// its count-only form.
	Select(table, col string, low, high int64) (Rows, error)
	Count(table, col string, low, high int64) (int, error)

	// Conjunctive selection over any columns, and its count-only form.
	SelectWhere(table string, conds ...Cond) (Rows, error)
	CountWhere(table string, conds ...Cond) (int, error)

	// Vectorized entry points: many ranges over one column in one call.
	SelectBatch(table, col string, ranges []Range) ([]Rows, error)
	CountBatch(table, col string, ranges []Range) ([]int, error)

	// Ω cracking: cluster the column into its distinct values.
	GroupBy(table, col string) ([]GroupInfo, error)

	// Introspection.
	Tables() []string
	Columns(table string) ([]string, error)
}

// Backend adapts the store to the Backend interface. The mismatches are
// variance — Select/SelectWhere/SelectBatch return the concrete *Result
// on *Store so local callers keep Values/OIDs/WriteTo, while the
// interface deals in Rows — and *Result.Rows' physical order.
func (s *Store) Backend() Backend { return storeBackend{s} }

type storeBackend struct {
	*Store
}

// canonical is a *Result whose Rows come back in canonical order.
type canonical struct{ *Result }

func (r canonical) Rows(cols ...string) ([][]int64, error) {
	rows, err := r.Result.Rows(cols...)
	core.SortRows(rows)
	return rows, err
}

// canonicalOf is a store's selection as its Backend answers it.
func canonicalOf(r *Result, err error) (Rows, error) {
	if err != nil {
		return nil, err
	}
	return canonical{r}, nil
}

func (b storeBackend) Select(table, col string, low, high int64) (Rows, error) {
	return canonicalOf(b.Store.Select(table, col, low, high))
}

func (b storeBackend) SelectWhere(table string, conds ...Cond) (Rows, error) {
	return canonicalOf(b.Store.SelectWhere(table, conds...))
}

func (b storeBackend) SelectBatch(table, col string, ranges []Range) ([]Rows, error) {
	rs, err := b.Store.SelectBatch(table, col, ranges)
	if err != nil {
		return nil, err
	}
	out := make([]Rows, len(rs))
	for i, r := range rs {
		out[i] = canonical{r}
	}
	return out, nil
}

var _ Backend = storeBackend{}
