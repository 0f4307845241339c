package figures

import (
	"fmt"
	"math"
	"time"

	"crackdb/internal/algebra"
	"crackdb/internal/expr"
)

// The §5.1 experiment: cracking simulated at the SQL level against a
// black-box engine. A Ξ cracker attr θ cst costs two scans and two
// materializations ("As SQL does not allow us to move tuples to multiple
// result tables in one query, we have to resort to two scans"):
//
//	SELECT INTO frag001 ... WHERE pred(r.a);
//	SELECT INTO frag002 ... WHERE NOT pred(r.a);
//
// plus the catalog transactions for both fragments. The same predicate
// handed to the store is one Store.Count: the first query on a virgin
// column, so it pays for creating the cracker column, one partition pass
// and an in-memory index insert. SQLLevel measures both and the cost
// components the section itemizes.

// SQLLevelResult itemizes the measured cost components.
type SQLLevelResult struct {
	N     int
	Sigma float64

	DeliverToFrontEnd time.Duration // baseline query, results to front-end
	StoreResult       time.Duration // same query materialized into a table
	CrackSQLLevel     time.Duration // two scans + two materializations
	CrackKernelLevel  time.Duration // first Store.Count on a virgin column
	SortUpfront       time.Duration // sort-first's first query (the rival investment)

	CatalogSchemaChanges int // fragments SQL-level cracking materialized, one schema change each
}

// String renders the cost breakdown.
func (r SQLLevelResult) String() string {
	return fmt.Sprintf(
		"§5.1 SQL-level cracking (N=%d, σ=%g)\n"+
			"  deliver to front-end:   %v\n"+
			"  store result in table:  %v\n"+
			"  crack at SQL level:     %v  (%d catalog schema changes)\n"+
			"  crack at kernel level:  %v\n"+
			"  sort upfront:           %v\n",
		r.N, r.Sigma,
		r.DeliverToFrontEnd, r.StoreResult, r.CrackSQLLevel, r.CatalogSchemaChanges,
		r.CrackKernelLevel, r.SortUpfront)
}

// SQLLevelConfig parameterizes the experiment.
type SQLLevelConfig struct {
	N     int
	Sigma float64 // paper's example: 5%
	Seed  int64
}

// SQLLevel runs the §5.1 cost comparison on the rowstore-txn personality.
func SQLLevel(cfg SQLLevelConfig) (SQLLevelResult, error) {
	if cfg.N <= 0 {
		cfg.N = 1_000_000
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 0.05
	}
	res := SQLLevelResult{N: cfg.N, Sigma: cfg.Sigma}

	tbl := buildRTable(cfg.N, cfg.Seed)
	cut := int64(cfg.Sigma * float64(cfg.N))
	pred := expr.Term{{Col: "a", Op: expr.Le, Val: cut}}
	notPred := expr.Term{{Col: "a", Op: expr.Gt, Val: cut}}
	prof := algebra.RowStoreTxn

	mkFilter := func(t expr.Term) (algebra.Iterator, error) {
		return algebra.NewFilter(algebra.NewTableScan(tbl), t)
	}

	// (b) Deliver to the front-end.
	it, err := mkFilter(pred)
	if err != nil {
		return res, err
	}
	start := time.Now()
	if _, err := algebra.Print(it, discard{}); err != nil {
		return res, err
	}
	res.DeliverToFrontEnd = time.Since(start)

	// (a) Store the result in a temporary table.
	it, err = mkFilter(pred)
	if err != nil {
		return res, err
	}
	start = time.Now()
	if _, err := algebra.Materialize(it, "newR", prof); err != nil {
		return res, err
	}
	res.StoreResult = time.Since(start)

	// SQL-level Ξ: two scans, two materializations, two fragments.
	start = time.Now()
	for _, frag := range []struct {
		name string
		term expr.Term
	}{{"frag001", pred}, {"frag002", notPred}} {
		it, err := mkFilter(frag.term)
		if err != nil {
			return res, err
		}
		if _, err := algebra.Materialize(it, frag.name, prof); err != nil {
			return res, err
		}
		res.CatalogSchemaChanges++
	}
	res.CrackSQLLevel = time.Since(start)

	// Kernel-level Ξ: the same predicate as the first query a fresh store
	// sees. The pass is microseconds at moderate N, so take the best of
	// three trials to keep scheduler hiccups out of the comparison.
	first := []query{{math.MinInt64, cut}} // a ≤ cut: one cut, one crack-in-two
	res.CrackKernelLevel = time.Duration(1<<63 - 1)
	for trial := 0; trial < 3; trial++ {
		_, a, err := openStore(posture{}, cfg.N, cfg.Seed)
		if err != nil {
			return res, err
		}
		if err := replay(a, first, func(_ int, st step) {
			res.CrackKernelLevel = min(res.CrackKernelLevel, st.Elapsed)
		}); err != nil {
			return res, err
		}
	}

	// The rival investment: sorting the attribute upfront, which is what
	// sort-first's first query pays.
	err = replay(sortFirst(tapestryColumn(cfg.N, cfg.Seed)), first, func(_ int, st step) {
		res.SortUpfront = st.Elapsed
	})
	return res, err
}

// discard is an io.Writer black hole that defeats dead-code elimination.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
