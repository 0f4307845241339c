package algebra

// Profile is an engine personality: a configuration of this engine that
// reproduces the cost *structure* of one of the paper's comparison
// systems. The paper benchmarks MySQL, PostgreSQL, SQLite and MonetDB
// out-of-the-box; those systems cannot be vendored here, so the relevant
// mechanisms are modelled instead (see DESIGN.md "substitutions"):
//
//   - tuple-at-a-time interpretation (one Row allocation per tuple,
//     virtual calls per operator) versus vectorized column-at-a-time
//     processing over BAT vectors;
//   - transactional materialization (every stored tuple also appended to
//     a checksummed WAL image) versus plain copies;
//   - a join-order optimizer with a bounded search space that falls back
//     to nested-loop joins when exhausted, versus binary-table joins.
type Profile struct {
	Name string

	// Vectorized switches the engine to column-at-a-time evaluation over
	// the BAT kernel (the MonetDB-like personality).
	Vectorized bool

	// TxnMaterialize charges a WAL append (copy + CRC) per stored tuple
	// and a catalog transaction per created fragment.
	TxnMaterialize bool

	// NestedLoopOnly forces nested-loop joins regardless of plan quality
	// (the weakest personality).
	NestedLoopOnly bool

	// OptimizerBudget bounds the number of (subset, tail) plan states the
	// join-order optimizer may explore before giving up and falling back
	// to the default nested-loop pipeline. 0 means unlimited.
	OptimizerBudget int
}

// The three personalities used throughout the experiments.
var (
	// RowStoreTxn models a classic transactional n-ary row store
	// (PostgreSQL/MySQL-shaped): tuple-at-a-time, WAL-charged
	// materialization, bounded optimizer with nested-loop fallback.
	RowStoreTxn = Profile{
		Name:            "rowstore-txn",
		TxnMaterialize:  true,
		OptimizerBudget: 4096,
	}

	// RowStoreLite models a lightweight embedded row store
	// (SQLite-shaped): cheaper materialization but nested-loop joins.
	RowStoreLite = Profile{
		Name:           "rowstore-lite",
		NestedLoopOnly: true,
	}

	// ColStore models the binary-table vectorized engine
	// (MonetDB-shaped).
	ColStore = Profile{
		Name:       "colstore",
		Vectorized: true,
	}
)

// Profiles lists the personalities in the order the figures plot them.
func Profiles() []Profile { return []Profile{RowStoreTxn, RowStoreLite, ColStore} }
