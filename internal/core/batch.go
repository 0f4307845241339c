package core

import (
	"slices"
	"sync"
	"time"

	"crackdb/internal/expr"
)

// Batched counting: many range predicates over one cracker column
// answered in one call, one range after another in submission order,
// each through Column.answer — the lock protocol every scalar read
// runs. A batch therefore leaves the column exactly as the same ranges
// counted one by one would: the same cuts, in the same order, with the
// same strategy consulted for each. What it amortizes is everything
// around the column: the registry and column resolution, the result
// allocation, and the caller's per-query overhead. A batch only counts;
// a selection is one Select per range.

// BatchAnswer is one predicate's answer within a column batch: the
// number of qualifying tuples.
type BatchAnswer struct {
	N int
}

// BatchRun owns the answers of one batch execution. Acquire one from
// the pool, run batches through it, Release it when the Answers are
// consumed. The pool is why a converged CountBatch allocates nothing
// but the counts it returns.
type BatchRun struct {
	// Answers is filled by CountBatchRun, in submission order. The
	// slice is reused across runs; copy anything that must outlive
	// Release.
	Answers []BatchAnswer
}

var batchRunPool = sync.Pool{New: func() any { return new(BatchRun) }}

// AcquireBatchRun returns a run from the pool.
func AcquireBatchRun() *BatchRun { return batchRunPool.Get().(*BatchRun) }

// Release returns the run to the pool. The run and its Answers must not
// be used afterwards.
func (r *BatchRun) Release() {
	r.Answers = r.Answers[:0]
	batchRunPool.Put(r)
}

// SelectBatch counts every range of the batch and returns the answers
// plus the execution order (order[k] is the submission index executed
// k-th), which is submission order. It is the self-contained form of
// SelectBatchRun for callers that hold onto the answers. ordered and
// countOnly ask for nothing, as in SelectBatchRun.
func (c *Column) SelectBatch(ranges []expr.Range, ordered, countOnly bool) ([]BatchAnswer, []int) {
	r := AcquireBatchRun()
	defer r.Release()
	c.SelectBatchRun(ranges, ordered, countOnly, r)
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	return append([]BatchAnswer(nil), r.Answers...), order
}

// SelectBatchRun counts every range of the batch into r.Answers, in
// submission order, each through answer exactly as Count would. ordered
// and countOnly ask for nothing: every batch runs in submission order
// and only counts, and the parameters stay only for callers compiled
// against them.
func (c *Column) SelectBatchRun(ranges []expr.Range, ordered, countOnly bool, run *BatchRun) {
	c.countBatch(ranges, run, nil)
}

// countBatch is SelectBatchRun, showing observe (when non-nil) each
// range right after it is answered, outside the column lock.
func (c *Column) countBatch(ranges []expr.Range, run *BatchRun, observe func(expr.Range)) {
	if in := c.instr.Load(); in != nil && in.Batch != nil {
		// A batch is tens of queries per call, so whole-call timing is
		// already amortized — no sampling needed.
		t0 := time.Now()
		defer func() { in.Batch.Observe(time.Since(t0).Nanoseconds()) }()
	}
	answers := slices.Grow(run.Answers[:0], len(ranges))[:len(ranges)]
	run.Answers = answers
	n := 0
	use := func(v View) { n = v.Len() }
	for i := range ranges {
		r := &ranges[i]
		c.answer(r.Low, r.High, r.LowIncl, r.HighIncl, true, use)
		answers[i].N = n
		if observe != nil {
			observe(*r)
		}
	}
}

// CountBatchRun counts a batch of ranges on one attribute into the run,
// resolving the cracker column once for the whole batch. Every range
// must name the attr column. The select observer sees each range right
// after it is answered, as it does for a scalar count. An empty batch
// returns before the column is resolved, so, like no query at all, it
// creates no cracker column.
func (ct *CrackedTable) CountBatchRun(attr string, ranges []expr.Range, run *BatchRun) error {
	run.Answers = run.Answers[:0]
	if len(ranges) == 0 {
		return nil
	}
	c, err := ct.ColumnFor(attr)
	if err != nil {
		return err
	}
	c.countBatch(ranges, run, ct.selectObs)
	return nil
}

// CountRange answers one range without materializing anything — the
// single-query entry of the same path CountBatch takes, shared by the
// store's Count.
func (ct *CrackedTable) CountRange(r expr.Range) (int, error) {
	c, err := ct.ColumnFor(r.Col)
	if err != nil {
		return 0, err
	}
	n, _ := ct.count(c, r, true)
	return n, nil
}

// count answers r on c, r.Col's cracker column, and shows the select
// observer the range once it is answered; with write false it may
// decline instead (ok false), having changed nothing (Column.answer).
func (ct *CrackedTable) count(c *Column, r expr.Range, write bool) (n int, ok bool) {
	if !c.answer(r.Low, r.High, r.LowIncl, r.HighIncl, write, func(v View) { n = v.Len() }) {
		return 0, false
	}
	if ct.selectObs != nil {
		ct.selectObs(r)
	}
	return n, true
}
