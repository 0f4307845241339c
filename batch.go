package crackdb

import (
	"sync"

	"crackdb/internal/core"
	"crackdb/internal/expr"
)

// Range is one inclusive batch predicate: Low <= col <= High. The
// public batch API mirrors Select's inclusive-range shape.
type Range struct {
	Low, High int64
}

// SelectBatch answers many inclusive range queries over one column in a
// single store entry: the table registry and cracker column are
// resolved once, the ranges are answered one by one in submission
// order — so the batch cracks exactly as the same Selects sent one by
// one would — and all answers share one pair of backing buffers.
// Results come back in submission order and behave exactly like Select
// results — Rows serves from the sideways maps when they can, Count and
// Values are copies safe under concurrent cracking.
func (s *Store) SelectBatch(table, col string, ranges []Range) ([]*Result, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, err
	}
	box, ex := exprRanges(col, ranges)
	defer exprRangeScratch.Put(box)
	run := core.AcquireBatchRun()
	defer run.Release()
	if err := ct.SelectBatchRun(col, ex, false, run); err != nil {
		return nil, err
	}
	// One backing array for the whole batch's Result headers: the
	// per-query allocation is part of the fixed cost a batch amortizes.
	backing := make([]Result, len(run.Answers))
	out := make([]*Result, len(run.Answers))
	for i := range run.Answers {
		a := &run.Answers[i]
		res := &backing[i]
		res.store, res.cracked = s, ct
		res.vals, res.oids = a.Vals, a.OIDs
		res.rng, res.hasRange = ex[i], true
		out[i] = res
	}
	return out, nil
}

// exprRangeScratch pools the internal predicate form a batch is
// translated into. The translation is pure fan-in scratch: nothing
// keeps a reference past the batch (Result.rng copies by value), and at
// 48 bytes per predicate a fresh slice per batch would cost more to
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

// CountBatch is SelectBatch without result materialization: the queries
// still crack (they are also advice) but only the qualifying-tuple
// counts come back, in submission order.
func (s *Store) CountBatch(table, col string, ranges []Range) ([]int, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, err
	}
	box, ex := exprRanges(col, ranges)
	defer exprRangeScratch.Put(box)
	run := core.AcquireBatchRun()
	defer run.Release()
	if err := ct.SelectBatchRun(col, ex, true, run); err != nil {
		return nil, err
	}
	counts := make([]int, len(run.Answers))
	for i, a := range run.Answers {
		counts[i] = a.N
	}
	return counts, nil
}
