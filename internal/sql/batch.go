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
	s, ok := stmt.(Select)
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
// Every other statement executes alone.
func (e *Engine) ExecWindow(stmts []Stmt) []Result {
	out := make([]Result, len(stmts))
	var ranges []crackdb.Range
	for i := 0; i < len(stmts); {
		first, _ := rangeCount(stmts[i])
		ranges = ranges[:0]
		for _, st := range stmts[i:] {
			rc, ok := rangeCount(st)
			if !ok || rc.Table != first.Table || rc.Col != first.Col {
				break
			}
			ranges = append(ranges, rc.Range())
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
		for end := i + max(len(ranges), 1); i < end; i++ {
			out[i].Set, out[i].Err = e.execStmt(stmts[i])
		}
	}
	return out
}
