package crackdb

import (
	"fmt"

	"crackdb/internal/core"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// Conjunctive multi-predicate queries on the public API. The range
// constraints of the conjunction are extracted as crack advice (paper
// §3.1: queries in disjunctive normal form are "the basis to localize
// and extract the database crackers"), the most selective advised column
// answers through its cracker, and the remaining conjuncts are evaluated
// on the candidates.

// Cond is one comparison of a conjunction: Col Op Val with Op one of
// "<", "<=", "=", ">=", ">", "<>".
type Cond struct {
	Col string
	Op  string
	Val int64
}

// opOf maps the SQL spelling to the expr operator.
func opOf(op string) (expr.Op, error) {
	switch op {
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case "=", "==":
		return expr.Eq, nil
	case ">=":
		return expr.Ge, nil
	case ">":
		return expr.Gt, nil
	case "<>", "!=":
		return expr.Ne, nil
	default:
		return 0, fmt.Errorf("crackdb: unknown operator %q", op)
	}
}

// Interval folds the conditions on col into the inclusive interval
// [lo, hi] they admit, lo > hi when no value can qualify. exact reports
// that every condition on col narrows — none is a <>, which admits two
// intervals — so [lo, hi] is the whole of the conjunction's constraint on
// col. A condition with an unknown operator, on any column, is the error
// a Store answers it with. The sharded router routes by this fold and
// the SQL classifier batches by it, so the two cannot disagree.
func Interval(col string, conds []Cond) (lo, hi int64, exact bool, err error) {
	r, exact := expr.FullRange(col), true
	for _, c := range conds {
		op, err := opOf(c.Op)
		if err != nil {
			return 0, 0, false, err
		}
		if c.Col != col {
			continue
		}
		if cr, ok := expr.RangeOf(expr.Pred{Col: col, Op: op, Val: c.Val}); ok {
			r = r.Intersect(cr)
		} else {
			exact = false
		}
	}
	if r.Empty() {
		return 1, 0, exact, nil
	}
	f := core.Inclusive(r.Low, r.High, r.LowIncl, r.HighIncl)
	return f.Low, f.High, exact, nil
}

// termOf validates the conditions against table t and builds, appending
// to term, the conjunctive term the planner takes.
func termOf(t *relation.Table, conds []Cond, term expr.Term) (expr.Term, error) {
	for _, c := range conds {
		op, err := opOf(c.Op)
		if err != nil {
			return nil, err
		}
		if err := hasColumns(t, c.Col); err != nil {
			return nil, err
		}
		term = append(term, expr.Pred{Col: c.Col, Op: op, Val: c.Val})
	}
	return term, nil
}

// SelectWhere answers a conjunction of comparisons, cracking the most
// selective advised column as a side effect. With no conditions it
// returns every tuple.
func (s *Store) SelectWhere(table string, conds ...Cond) (*Result, error) {
	_, res, _, err := s.where(table, conds, false, true)
	return res, err
}

// Delete removes the tuples matching the conjunction (every tuple when
// the conjunction is empty) and reports how many were deleted. The WAL
// record is the predicate, not the resolved OIDs: given an identical
// record prefix the predicate selects identical tuples, so replicas
// replaying the log — whose physical crack order legitimately differs —
// converge on the same live set. The base relation keeps a deleted
// tuple's row behind a tombstone — surrogate OIDs are never renumbered —
// while every cracker column compacts it away, payload vectors included,
// at its next fold (see core.CrackedTable.DeleteOIDs, DESIGN.md Updates).
func (s *Store) Delete(table string, conds ...Cond) (int, error) {
	ct, err := s.tableFor(table)
	if err != nil {
		return 0, err
	}
	term, err := termOf(ct.Base(), conds, nil)
	if err != nil {
		return 0, err
	}
	// Select before taking the store lock: the select observer may flip
	// the driving column's strategy, which reads the store's
	// configuration under that lock.
	oids, _, _, err := ct.SelectTermPlanned(term, true)
	if err != nil {
		return 0, err
	}
	// The tombstones go in under the store lock, so an image being
	// written sees the table's set and its columns' sets agree.
	s.mu.Lock()
	defer s.mu.Unlock()
	return ct.DeleteOIDs(oids), nil
}

// CountWhere is SelectWhere returning only the qualifying-tuple count.
// The query still cracks, but a conjunction the driving column absorbs
// whole materializes nothing.
func (s *Store) CountWhere(table string, conds ...Cond) (int, error) {
	n, _, _, err := s.where(table, conds, true, true)
	return n, err
}

// ReadWhere offers a conjunction to the store read-only. When the store
// can answer without changing — the driving column exists, has no
// pending updates, and both cuts of its range are in the cracker index —
// it answers as CountWhere does (count set; res is nil) or as
// SelectWhere does (n is res.Count()). Otherwise it declines: ok is
// false and nothing changed, not even a statistic or the auto-tuner's
// view of the workload, so CountWhere or SelectWhere can answer it next
// as if the offer had never been made. An error is the one CountWhere or
// SelectWhere would return, never a decline. The shard router offers
// every target shard a read this way first and fans out only the shards
// that decline.
func (s *Store) ReadWhere(table string, count bool, conds ...Cond) (n int, res *Result, ok bool, err error) {
	return s.where(table, conds, count, false)
}

// where is the one conjunction path under CountWhere, SelectWhere and
// ReadWhere: count picks the answer's form, write whether the planner
// may change the store to produce it (core.CrackedTable.SelectTermPlanned).
func (s *Store) where(table string, conds []Cond, count, write bool) (n int, res *Result, ok bool, err error) {
	ct, err := s.tableFor(table)
	if err != nil {
		return 0, nil, false, err
	}
	// On the stack: a term of up to four conditions allocates nothing
	// (TestRoutedReadBudget counts on it).
	var buf [4]expr.Pred
	term, err := termOf(ct.Base(), conds, buf[:0])
	if err != nil {
		return 0, nil, false, err
	}
	if count {
		n, ok, err = ct.CountTerm(term, write)
		return n, nil, ok, err
	}
	// The planner picks the driving column from cracker-index statistics
	// and cracks only that one (paper §3.3: piece statistics let the
	// optimizer cost plans for free).
	oids, _, ok, err := ct.SelectTermPlanned(term, write)
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return len(oids), &Result{store: s, cracked: ct, oids: oids}, true, nil
}

// OIDs returns the surrogate identifiers of the qualifying tuples.
func (r *Result) OIDs() []uint32 {
	out := make([]uint32, len(r.oids))
	for i, o := range r.oids {
		out[i] = uint32(o)
	}
	return out
}
