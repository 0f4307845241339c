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

// Backend is the query surface the SQL engine runs on. One embedded
// *Store (via Store.Backend) and a sharded router (internal/shard) both
// present this interface, so sql.Engine programs against a single shape,
// and it holds exactly the methods the engine calls. Nothing implements
// it over the wire: a remote client sends SQL through internal/server's
// Client, and a replicated deployment is every member cracking its own
// store, so there is no cluster-wide Backend to speak.
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

	// Conjunctive selection over any columns, and its count-only form.
	SelectWhere(table string, conds ...Cond) (Rows, error)
	CountWhere(table string, conds ...Cond) (int, error)

	// Ω cracking: cluster the column into its distinct values.
	GroupBy(table, col string) ([]GroupInfo, error)

	// Introspection.
	Columns(table string) ([]string, error)
}

// Backend adapts the store to the Backend interface. The mismatches are
// variance — SelectWhere returns the concrete *Result on *Store so local
// callers keep Values/OIDs/WriteTo, while the interface deals in Rows —
// and *Result.Rows' physical order.
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

func (b storeBackend) SelectWhere(table string, conds ...Cond) (Rows, error) {
	r, err := b.Store.SelectWhere(table, conds...)
	if err != nil {
		return nil, err
	}
	return canonical{r}, nil
}

var _ Backend = storeBackend{}
