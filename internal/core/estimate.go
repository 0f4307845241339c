package core

import (
	"math"
	"sort"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Selectivity estimation from the cracker index alone — the §3.3
// observation that after cracking "the pieces of interest for query
// evaluation are all available with precise statistics", so the
// optimizer can cost plans without touching data.

// Estimate bounds the number of qualifying tuples for a range using only
// piece boundaries: pieces whose value interval lies inside the range
// count fully (Min), pieces merely intersecting it add their size to the
// upper bound (Max). The true count always satisfies Min <= n <= Max,
// and the gap narrows as the column cracks.
type Estimate struct {
	Min int
	Max int
}

// EstimateRange bounds the answer size of a range query without reading
// or moving any data: four index probes, O(log p) in the number of
// pieces, no allocation.
//
// Pieces are ordered by value, so the pieces intersecting the range are
// one run of positions and the pieces inside it a sub-run. A value
// qualifies iff it sits right of the range's lower cut lo = Low and left
// of its upper one hi = High+1. The
// intersecting run then spans from the last cut <= lo to the first cut
// >= hi, the contained run from the first cut >= lo to the last cut <=
// hi. A missing cut, or an unbounded side, is the column's edge.
func (c *Column) EstimateRange(r Range) Estimate {
	c.mu.RLock()
	defer c.mu.RUnlock()

	n := len(c.vals) + len(c.pending) - len(c.deleted)
	if n <= 0 || r.Low > r.High {
		return Estimate{}
	}
	if c.idx.Len() == 0 {
		return Estimate{Min: 0, Max: n}
	}

	end := len(c.vals)
	loBelow, ok, loAbove, loAboveOK := c.idx.bracket(r.Low)
	if !ok {
		loBelow = 0
	}
	if r.Low == math.MinInt64 {
		loAbove, loAboveOK = 0, true
	}
	hiBelow, hiBelowOK, hiAbove := end, true, end
	if r.High != math.MaxInt64 {
		if hiBelow, hiBelowOK, hiAbove, ok = c.idx.bracket(r.High + 1); !ok {
			hiAbove = end
		}
	}

	est := Estimate{Max: hiAbove - loBelow}
	if loAboveOK && hiBelowOK && hiBelow > loAbove {
		est.Min = hiBelow - loAbove
	}
	// Pending updates blur the picture: widen by the pending counts.
	blur := len(c.pending) + len(c.deleted)
	est.Min -= blur
	if est.Min < 0 {
		est.Min = 0
	}
	est.Max += blur
	if est.Max > n {
		est.Max = n
	}
	return est
}

// termPlan is the planner's answer for one conjunctive term: which
// column's cracker drives it, over which range, and what that range
// leaves unchecked.
type termPlan struct {
	col      *Column   // driving column; nil when the term carries no crack advice
	name     string    // the driving column's attribute
	rng      Range     // the driving column's advised range, folded
	residual expr.Term // conjuncts rng does not imply: <> on the driving column, everything on other columns
}

// planTerm picks the driving column from index statistics and splits
// the term into the range that column's cracker answers exactly and the
// residual conjuncts. Only the column with the smallest estimated
// answer drives; columns without statistics are estimated at full size,
// so a cracked column is preferred over a virgin one — unless the
// planner has nothing better, in which case the first advised column is
// cracked (and gains statistics for next time). A single advised column
// needs no estimate at all, and a term that names one column only —
// every scalar range statement — has no choice to make: its advice is
// folded in place, without the per-column map.
//
// With write false a driving column no query has created yet declines
// the term (ok false): creating it would change the table.
func (ct *CrackedTable) planTerm(term expr.Term, write bool) (p termPlan, ok bool, err error) {
	best, rng, advised, single := oneColumnAdvice(term)
	if !single {
		advice := expr.CrackAdvice(term)
		if len(advice) > 1 {
			// Sorted column order, so estimate ties break deterministically.
			cols := make([]string, 0, len(advice))
			for col := range advice {
				cols = append(cols, col)
			}
			sort.Strings(cols)
			bestMax := math.MaxInt
			for _, col := range cols {
				upper := ct.baseLen()
				if c, tracked := ct.Column(col); tracked {
					upper = c.EstimateRange(inclusiveOf(advice[col])).Max
				}
				if upper < bestMax || best == "" {
					best, bestMax = col, upper
				}
			}
		} else {
			for col := range advice {
				best = col
			}
		}
		rng, advised = advice[best]
	}
	if !advised {
		// Copied, not aliased: a plan keeps nothing of the term, which
		// the caller may build on its stack.
		return termPlan{residual: append(expr.Term(nil), term...)}, true, nil
	}
	var col *Column
	if write {
		if col, err = ct.ColumnFor(best); err != nil {
			return termPlan{}, false, err
		}
	} else if col, ok = ct.Column(best); !ok {
		return termPlan{}, false, nil
	}
	p = termPlan{col: col, name: best, rng: inclusiveOf(rng)}
	for _, pred := range term {
		if pred.Col != best || pred.Op == expr.Ne {
			p.residual = append(p.residual, pred)
		}
	}
	return p, true, nil
}

// oneColumnAdvice is expr.CrackAdvice for a term that names at most one
// column (single; an empty term qualifies): the column and the
// intersection of its predicates' ranges, advised being false when no
// predicate has a range form.
func oneColumnAdvice(term expr.Term) (col string, rng expr.Range, advised, single bool) {
	for _, p := range term {
		if col == "" {
			col = p.Col
		}
		if p.Col != col {
			return "", expr.Range{}, false, false
		}
		r, ok := expr.RangeOf(p)
		switch {
		case !ok:
		case advised:
			rng = rng.Intersect(r)
		default:
			rng, advised = r, true
		}
	}
	return col, rng, advised, true
}

// SelectTermPlanned answers a conjunctive term: the planned driving
// column is cracked (and only that one) and the residual conjuncts are
// evaluated on its candidates. With an empty residual the cracker's
// answer is the answer — the column already excludes tombstoned rows
// once it has consolidated, which every selection does first.
//
// write chooses the path. With it the term is always answered (ok).
// Without it the term is offered to the read path only and declines —
// ok false, the table exactly as it was: no cracker column created, no
// fold, no crack, no counter moved, no select observer called — when
// answering would change any of that (Column.answer).
func (ct *CrackedTable) SelectTermPlanned(term expr.Term, write bool) (oids []bat.OID, driving *Column, ok bool, err error) {
	p, ok, err := ct.planTerm(term, write)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	oids, ok, err = ct.selectPlan(p, write)
	return oids, p.col, ok, err
}

// CountTerm is SelectTermPlanned for a consumer that only wants the
// number of qualifying tuples. A term the driving column absorbs whole
// is answered from two cut positions: no value copy, no OID slice.
func (ct *CrackedTable) CountTerm(term expr.Term, write bool) (n int, ok bool, err error) {
	p, ok, err := ct.planTerm(term, write)
	if err != nil || !ok {
		return 0, false, err
	}
	if len(p.residual) == 0 {
		if p.col == nil {
			return ct.LiveLen(), true, nil
		}
		ok = p.col.answer([]Range{p.rng}, write, func(_ int, v View) { n = v.Len() }, ct.observer(p.name))
		return n, ok, nil
	}
	oids, ok, err := ct.selectPlan(p, write)
	return len(oids), ok, err
}

// selectPlan executes a plan for a consumer that wants the tuples: the
// driving column's answer (every base row when nothing drives), less
// what the residual rejects. Only the driving column can decline.
func (ct *CrackedTable) selectPlan(p termPlan, write bool) ([]bat.OID, bool, error) {
	if p.col == nil {
		oids, err := ct.filterOIDs(allOIDs(ct.baseLen()), p.residual)
		return oids, err == nil, err
	}
	// Copy the OIDs under the column lock: view windows would alias state
	// that a concurrent crack may shuffle. The driving column absorbs a
	// single-range selection, exactly like SelectCopy — the tuner's
	// observer must see it, or queries arriving through the conjunction
	// planner are invisible to it.
	var cands []bat.OID
	if !p.col.answer([]Range{p.rng}, write, func(_ int, v View) {
		cands = append([]bat.OID(nil), v.OIDs()...)
	}, ct.observer(p.name)) {
		return nil, false, nil
	}
	if len(p.residual) == 0 {
		return cands, true, nil
	}
	oids, err := ct.filterOIDs(cands, p.residual)
	return oids, err == nil, err
}
