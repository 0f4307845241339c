// Package engine executes multi-query sequences against one attribute of
// a table under the three physical-design strategies the paper's §5.2
// experiments compare (Figures 10 and 11):
//
//   - NoCrack: every query is a full scan ("merely results in multiple
//     scans over the database");
//   - SortFirst: the first query pays for sorting the column upfront,
//     after which every query is a binary search — the classical
//     index-upfront alternative of §2.2;
//   - Crack: adaptive reorganization through the cracker core.
//
// Sessions record per-query wall time and physical work so the figure
// harness can plot both.
package engine

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

// Strategy selects the physical design regime of a session.
type Strategy uint8

// The strategies of Figures 10 and 11.
const (
	NoCrack Strategy = iota
	SortFirst
	Crack
)

// String names the strategy as the figures label it.
func (s Strategy) String() string {
	switch s {
	case NoCrack:
		return "nocrack"
	case SortFirst:
		return "sort"
	case Crack:
		return "crack"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ResultMode selects how a query's answer is delivered (Figure 1's three
// modes).
type ResultMode uint8

// Delivery modes.
const (
	ModeCount ResultMode = iota
	ModePrint
	ModeMaterialize
)

// QueryStats records one query execution.
type QueryStats struct {
	Count         int           // qualifying tuples
	Elapsed       time.Duration // wall time
	TuplesTouched int64         // elements read by cracking/scanning
	TuplesMoved   int64         // elements written by reorganization
}

// Session runs a query sequence over one attribute under one strategy.
// Sessions are not safe for concurrent use.
type Session struct {
	strategy Strategy
	table    *relation.Table
	colName  string

	base *bat.BAT // the scanned column (NoCrack)

	sorted    *bat.BAT  // sorted copy (SortFirst), built on first query
	order     []bat.OID // order[i] = original position of sorted[i]
	sortSpent time.Duration

	cracked *core.Column // cracker column (Crack)
}

// NewSession prepares a session for the given table attribute.
func NewSession(t *relation.Table, col string, strategy Strategy) (*Session, error) {
	b, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	s := &Session{strategy: strategy, table: t, colName: col, base: b}
	if strategy == Crack {
		s.cracked = core.FromBAT(b)
	}
	return s, nil
}

// Strategy returns the session's strategy.
func (s *Session) Strategy() Strategy { return s.strategy }

// Column returns the cracker column of a Crack session (nil otherwise),
// for lineage inspection.
func (s *Session) Column() *core.Column { return s.cracked }

// Run executes one range query (inclusive bounds, the mqs.Query
// convention) and delivers the answer in the requested mode. The writer
// is used by ModePrint; it may be nil for other modes.
func (s *Session) Run(q mqs.Query, mode ResultMode, w io.Writer) (QueryStats, error) {
	start := time.Now()
	var st QueryStats
	var err error
	switch s.strategy {
	case NoCrack:
		st, err = s.runScan(q, mode, w)
	case SortFirst:
		st, err = s.runSorted(q, mode, w)
	case Crack:
		st, err = s.runCracked(q, mode, w)
	default:
		return QueryStats{}, fmt.Errorf("engine: unknown strategy %d", s.strategy)
	}
	if err != nil {
		return st, err
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// RunSequence executes a whole multi-query sequence, returning per-query
// stats.
func (s *Session) RunSequence(qs []mqs.Query, mode ResultMode, w io.Writer) ([]QueryStats, error) {
	out := make([]QueryStats, 0, len(qs))
	for i, q := range qs {
		st, err := s.Run(q, mode, w)
		if err != nil {
			return out, fmt.Errorf("engine: step %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// runScan answers by a full scan of the base column.
func (s *Session) runScan(q mqs.Query, mode ResultMode, w io.Writer) (QueryStats, error) {
	st := QueryStats{TuplesTouched: int64(s.base.Len())}
	switch mode {
	case ModeCount:
		st.Count = s.base.CountRange(q.Low, q.High, true, true)
	default:
		pos := s.base.SelectRange(q.Low, q.High, true, true)
		st.Count = len(pos)
		if mode == ModePrint && w != nil {
			if err := printPositions(w, s.base, pos); err != nil {
				return st, err
			}
		}
		if mode == ModeMaterialize {
			out := make([]int64, len(pos))
			for i, p := range pos {
				out[i] = s.base.Int(p)
			}
			st.TuplesMoved = int64(len(out))
		}
	}
	return st, nil
}

// runSorted pays the sort on first use, then binary-searches.
func (s *Session) runSorted(q mqs.Query, mode ResultMode, w io.Writer) (QueryStats, error) {
	var st QueryStats
	if s.sorted == nil {
		t0 := time.Now()
		s.sorted, s.order = s.base.OrderBy(s.colName + "_sorted")
		s.sortSpent = time.Since(t0)
		n := int64(s.base.Len())
		st.TuplesMoved = n * int64(log2ceil(n))
		st.TuplesTouched = st.TuplesMoved
	}
	pos := s.sorted.SelectRange(q.Low, q.High, true, true)
	st.Count = len(pos)
	st.TuplesTouched += int64(len(pos))
	switch mode {
	case ModePrint:
		if w != nil {
			if err := printPositions(w, s.sorted, pos); err != nil {
				return st, err
			}
		}
	case ModeMaterialize:
		out := make([]int64, len(pos))
		for i, p := range pos {
			out[i] = s.sorted.Int(p)
		}
		st.TuplesMoved += int64(len(out))
	}
	return st, nil
}

// runCracked answers through the cracker column.
func (s *Session) runCracked(q mqs.Query, mode ResultMode, w io.Writer) (QueryStats, error) {
	before := s.cracked.Stats()
	view := s.cracked.Select(q.Low, q.High, true, true)
	after := s.cracked.Stats()
	st := QueryStats{
		Count:         view.Len(),
		TuplesTouched: after.TuplesTouched - before.TuplesTouched,
		TuplesMoved:   after.TuplesMoved - before.TuplesMoved,
	}
	switch mode {
	case ModePrint:
		if w != nil {
			// Snapshot, not Values: the window is copied out under the
			// column's read lock rather than aliased. Each session owns a
			// private cracker column, so the snapshot here is always exact;
			// see View.Snapshot for the caveats when a column is shared.
			vals, _ := view.Snapshot()
			if err := printValues(w, vals); err != nil {
				return st, err
			}
		}
	case ModeMaterialize:
		vals, _ := view.Materialize()
		st.TuplesMoved += int64(len(vals))
	}
	return st, nil
}

// SortCost returns the time the SortFirst session spent sorting (zero
// until the first query arrives).
func (s *Session) SortCost() time.Duration { return s.sortSpent }

func printPositions(w io.Writer, b *bat.BAT, pos []int) error {
	return writeInts(w, func(yield func(int64)) {
		for _, p := range pos {
			yield(b.Int(p))
		}
	})
}

func printValues(w io.Writer, vals []int64) error {
	return writeInts(w, func(yield func(int64)) {
		for _, v := range vals {
			yield(v)
		}
	})
}

// writeInts streams integers in a compact text form.
func writeInts(w io.Writer, produce func(yield func(int64))) error {
	buf := make([]byte, 0, 1<<12)
	var err error
	produce(func(v int64) {
		if err != nil {
			return
		}
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '\n')
		if len(buf) >= 1<<12-32 {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

func log2ceil(n int64) int {
	l := 0
	for v := int64(1); v < n; v <<= 1 {
		l++
	}
	return l
}
