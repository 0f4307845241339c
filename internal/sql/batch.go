package sql

import "crackdb"

// RangeCount is a range count as Parser.Classify hands it on:
// SELECT COUNT(*) FROM Table WHERE <conjunction on exactly one column>,
// folded to the inclusive range [Low, High] (Low > High when the
// conjunction is unsatisfiable). Engine.ExecWindow answers it through
// the store's CountBatch, alone or in a run.
type RangeCount struct {
	Table string
	Col   string
	Low   int64
	High  int64
}

// Range returns the folded predicate as a crackdb batch range.
func (rc RangeCount) Range() crackdb.Range { return crackdb.Range{Low: rc.Low, High: rc.High} }

// ClassifyRangeCount is Parse plus rangeCount. A window classifies
// through Parser.Classify; this text entry is kept only for bench/,
// which compiles against it.
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
// unknown operator declines. It is the one judge of what folds: the
// Parser asks it once per shape, and folds a remembered shape's later
// counts (Parser.fold) only where it answered yes.
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

// ExecWindow executes a window's statements in order and answers each.
// A maximal run of RangeCounts on one (table, column) — one count, or
// what a pipelining client sends, as Parser.Classify hands it on — is
// one shard.Store.CountBatch, which counts the ranges in submission
// order; if the batch fails, each statement of the run answers its
// error, which reads as the statement's would alone. Every other
// statement executes alone. ExecWindow classifies nothing: a *Select
// that Parse returned executes alone, whatever it counts.
func (e *Engine) ExecWindow(stmts []Stmt) []Result {
	out := make([]Result, len(stmts))
	var ranges []crackdb.Range
	for i := 0; i < len(stmts); {
		first, ok := stmts[i].(*RangeCount)
		if !ok {
			out[i].Set, out[i].Err = e.execStmt(stmts[i])
			i++
			continue
		}
		if ranges == nil {
			ranges = make([]crackdb.Range, 0, len(stmts)-i)
		}
		ranges = ranges[:0]
		for _, st := range stmts[i:] {
			c, ok := st.(*RangeCount)
			if !ok || c.Table != first.Table || c.Col != first.Col {
				break
			}
			ranges = append(ranges, c.Range())
		}
		run := out[i : i+len(ranges)]
		i += len(ranges)
		counts, err := e.store.CountBatch(first.Table, first.Col, ranges)
		if err != nil {
			for k := range run {
				run[k].Err = err
			}
			continue
		}
		sets := countResults(counts)
		for k := range run {
			run[k].Set = &sets[k]
		}
	}
	return out
}
