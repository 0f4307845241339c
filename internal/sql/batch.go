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

// ClassifyRangeCount reports whether the statement is a pure
// single-column range COUNT(*) — the exact shape the engine's COUNT(*)
// fast path answers via the router's CountWhere, restricted to conjunctions
// on one column so the fold to one inclusive range (crackdb.Interval) is
// lossless. Any parse error, other statement shape, or operator outside
// <, <=, =, >=, > declines (ok = false) and the caller dispatches
// normally.
func ClassifyRangeCount(input string) (RangeCount, bool) {
	stmt, err := Parse(input)
	if err != nil {
		return RangeCount{}, false
	}
	s, ok := stmt.(Select)
	if !ok {
		return RangeCount{}, false
	}
	// Mirror the engine fast-path guard exactly, plus: at least one
	// condition (COUNT over everything has no column to batch on).
	if len(s.Items) != 1 || s.Items[0].Agg != AggCountStar || s.GroupBy != "" || s.Into != "" || len(s.Where) == 0 {
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
