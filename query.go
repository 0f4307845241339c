package crackdb

import (
	"fmt"

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
	lo, hi = r.Low, r.High
	// Not empty, so an exclusive bound is strictly inside the other: no
	// step below can overflow.
	if !r.LowIncl {
		lo++
	}
	if !r.HighIncl {
		hi--
	}
	return lo, hi, exact, nil
}

// termOf validates the conditions against table t and builds the
// conjunctive term the planner takes.
func termOf(t *relation.Table, conds []Cond) (expr.Term, error) {
	term := make(expr.Term, 0, len(conds))
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
	ct, err := s.tableFor(table)
	if err != nil {
		return nil, err
	}
	term, err := termOf(ct.Base(), conds)
	if err != nil {
		return nil, err
	}
	// The planner picks the driving column from cracker-index statistics
	// and cracks only that one (paper §3.3: piece statistics let the
	// optimizer cost plans for free).
	oids, _, err := ct.SelectTermPlanned(term)
	if err != nil {
		return nil, err
	}
	return &Result{store: s, cracked: ct, oids: oids}, nil
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
	term, err := termOf(ct.Base(), conds)
	if err != nil {
		return 0, err
	}
	// Select before taking the store lock: the select observer may flip
	// the driving column's strategy, which reads the store's
	// configuration under that lock.
	oids, _, err := ct.SelectTermPlanned(term)
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
	ct, err := s.tableFor(table)
	if err != nil {
		return 0, err
	}
	term, err := termOf(ct.Base(), conds)
	if err != nil {
		return 0, err
	}
	return ct.CountTerm(term)
}

// OIDs returns the surrogate identifiers of the qualifying tuples.
func (r *Result) OIDs() []uint32 {
	out := make([]uint32, len(r.oids))
	for i, o := range r.oids {
		out[i] = uint32(o)
	}
	return out
}
