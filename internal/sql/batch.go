package sql

import "crackdb"

// RangeCount is a statement the batched count path can absorb:
// SELECT COUNT(*) FROM Table WHERE <conjunction on exactly one column>,
// folded to the inclusive range [Low, High] (Low > High when the
// conjunction is unsatisfiable).
type RangeCount struct {
	Table string
	Col   string
	Low   int64
	High  int64
}

// Range returns the folded predicate as a crackdb batch range.
func (rc RangeCount) Range() crackdb.Range { return crackdb.Range{Low: rc.Low, High: rc.High} }

// ClassifyRangeCount is Parse plus rangeCount. ExecWindow classifies
// parsed statements; this text entry is kept only for bench/, which
// compiles against it.
func ClassifyRangeCount(input string) (RangeCount, bool) {
	stmt, err := Parse(input)
	if err != nil {
		return RangeCount{}, false
	}
	return rangeCount(stmt)
}

// rangeCount reports whether stmt is a pure single-column range COUNT(*):
// execSelect's fast path (countStar) with at least one condition (COUNT
// over everything has no column to batch on), all on one column, so the
// fold to one inclusive range (crackdb.Interval) is lossless. A <> or an
// unknown operator declines.
func rangeCount(stmt Stmt) (RangeCount, bool) {
	s, ok := stmt.(*Select)
	if !ok || !s.countStar() || len(s.Where) == 0 {
		return RangeCount{}, false
	}
	col := s.Where[0].Col
	for _, c := range s.Where {
		if c.Col != col {
			return RangeCount{}, false
		}
	}
	lo, hi, exact, err := crackdb.Interval(col, s.Where)
	if err != nil || !exact {
		return RangeCount{}, false
	}
	return RangeCount{Table: s.Table, Col: col, Low: lo, High: hi}, true
}

// Result is one statement's answer: a result set or an error.
type Result struct {
	Set *ResultSet
	Err error
}

// ExecWindow executes parsed statements in order and answers each. A
// maximal run of two or more range counts on one (table, column) — what
// a pipelining client sends — is one shard.Store.CountBatch, which
// counts the ranges in submission order; if the batch fails, the run's
// statements execute one by one, so each error reads as it would alone.
// Every other statement executes alone. Each statement is classified
// once: the one that ends a run opens the next.
func (e *Engine) ExecWindow(stmts []Stmt) []Result {
	out := make([]Result, len(stmts))
	var ranges []crackdb.Range
	classify := func(k int) (RangeCount, bool) {
		if k < len(stmts) {
			return rangeCount(stmts[k])
		}
		return RangeCount{}, false
	}
	next, ok := classify(0) // stmts[i]'s classification
	for i := 0; i < len(stmts); {
		first, run, end := next, ok, i+1 // the run is stmts[i:end]
		ranges = ranges[:0]
		if run {
			ranges = append(ranges, first.Range())
		}
		for next, ok = classify(end); run && ok && next.Table == first.Table && next.Col == first.Col; next, ok = classify(end) {
			ranges = append(ranges, next.Range())
			end++
		}
		if len(ranges) >= 2 {
			if counts, err := e.store.CountBatch(first.Table, first.Col, ranges); err == nil {
				sets := countResults(counts)
				for k := range sets {
					out[i].Set = &sets[k]
					i++
				}
				continue
			}
		}
		for ; i < end; i++ {
			out[i].Set, out[i].Err = e.execStmt(stmts[i])
		}
	}
	return out
}
