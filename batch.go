package crackdb

import (
	"sync"

	"crackdb/internal/core"
	"crackdb/internal/expr"
)

// Range is one inclusive batch predicate: Low <= col <= High. The
// public batch API mirrors Count's inclusive-range shape.
type Range struct {
	Low, High int64
}

// exprRangeScratch pools the internal predicate form a batch is
// translated into. The translation is pure fan-in scratch: nothing
// keeps a reference past the batch, and at 48 bytes per predicate a fresh slice per batch would cost more to
// zero than a converged batch costs to answer.
var exprRangeScratch = sync.Pool{New: func() any { return new([]expr.Range) }}

func exprRanges(col string, ranges []Range) (*[]expr.Range, []expr.Range) {
	p := exprRangeScratch.Get().(*[]expr.Range)
	ex := *p
	if cap(ex) < len(ranges) {
		ex = make([]expr.Range, len(ranges))
	} else {
		ex = ex[:len(ranges)]
	}
	*p = ex
	for i, r := range ranges {
		ex[i] = expr.Range{Col: col, Low: r.Low, High: r.High, LowIncl: true, HighIncl: true}
	}
	return p, ex
}

// CountBatch counts many inclusive ranges over one column in a single
// store entry: the table registry and cracker column are resolved once,
// and the ranges are answered in submission order, each run of converged
// ones under one read hold of the column — so the batch cracks exactly as
// the same Counts sent one by one would. The
// counts come back in submission order. An empty batch creates nothing.
func (s *Store) CountBatch(table, col string, ranges []Range) ([]int, error) {
	counts, _, err := s.countBatch(table, col, ranges, true)
	return counts, err
}

// ReadBatch offers a batch to the store read-only, as ReadWhere offers a
// conjunction. When the column's cracker index resolves every range and
// no update is pending, it answers as CountBatch does, under one read
// hold. Otherwise it declines: ok is false and nothing changed — no
// cracker column created, no statistic, no timing, not the auto-tuner's
// view of the workload — so CountBatch can answer the batch next as if
// the offer had never been made. An error is the one CountBatch would
// return, never a decline. The shard router offers every shard its
// sub-batch this way first and fans out only the shards that decline.
func (s *Store) ReadBatch(table, col string, ranges []Range) (counts []int, ok bool, err error) {
	return s.countBatch(table, col, ranges, false)
}

// countBatch is CountBatch, and ReadBatch with write false.
func (s *Store) countBatch(table, col string, ranges []Range, write bool) ([]int, bool, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, false, err
	}
	box, ex := exprRanges(col, ranges)
	defer exprRangeScratch.Put(box)
	run := core.AcquireBatchRun()
	defer run.Release()
	if ok, err := ct.CountBatchRun(col, ex, run, write); !ok || err != nil {
		return nil, false, err
	}
	counts := make([]int, len(run.Answers))
	for i, a := range run.Answers {
		counts[i] = a.N
	}
	return counts, true, nil
}
