package core

import (
	"slices"
	"sync"

	"crackdb/internal/expr"
)

// Batched counting: many range predicates over one cracker column
// answered in one call, in submission order, by the loop every read of
// the column runs (Column.answer): a scalar count is a batch of one. What
// a batch amortizes is the column's lock and accounting per range and
// everything around the column: the registry and column resolution, the
// result allocation, and the caller's per-query overhead. A batch may
// also be offered read-only (write false): answered whole from the index
// under one read hold, or declined untouched. A batch only counts; a
// selection is one Select per range.

// BatchAnswer is one predicate's answer within a column batch: the
// number of qualifying tuples.
type BatchAnswer struct {
	N int
}

// BatchRun owns the answers of SelectBatchRun. Acquire one from the
// pool, run batches through it, Release it when the Answers are
// consumed. No store path uses it: CountBatchRun counts into a slice the
// caller owns.
type BatchRun struct {
	// Answers is filled by SelectBatchRun, in submission order. The
	// slice is reused across runs; copy anything that must outlive
	// Release.
	Answers []BatchAnswer

	ranges []Range // SelectBatchRun's folded ranges, reused across runs
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
// submission order, each exactly as Count would. The ranges are folded
// (Inclusive) into scratch the run owns. ordered and countOnly ask for
// nothing: every batch runs in submission order and only counts, and the
// parameters stay only for callers compiled against them.
func (c *Column) SelectBatchRun(ranges []expr.Range, ordered, countOnly bool, run *BatchRun) {
	run.ranges = run.ranges[:0]
	for _, r := range ranges {
		run.ranges = append(run.ranges, inclusiveOf(r))
	}
	answers := slices.Grow(run.Answers[:0], len(ranges))[:len(ranges)]
	run.Answers = answers
	c.answer(run.ranges, true, func(i int, v View) { answers[i].N = v.Len() }, nil)
}

// countBatch counts ranges into counts[i], showing observe (when
// non-nil) each range once it is answered, outside the column lock: the
// column's one read loop (answer). With write false the batch is only
// offered, and answer's decline leaves what it wrote to counts to be
// dropped. It reports whether the batch was answered.
func (c *Column) countBatch(ranges []Range, counts []int, observe func(Range), write bool) bool {
	return c.answer(ranges, write, func(i int, v View) { counts[i] = v.Len() }, observe)
}

// CountBatchRun counts a batch of ranges on one attribute into counts,
// which has a slot per range, resolving the cracker column once for the
// whole batch; a scalar count is a batch of one. The select observer
// sees each range right after it is answered. An empty batch returns
// before the column is resolved, so, like no query at all, it creates no
// cracker column.
//
// With write false the batch is only offered (Column.countBatch): it
// is answered when attr's cracker column exists and its index resolves
// every range, and otherwise declined (ok false) having changed nothing
// but counts, the cracker column not even created. The shard router
// offers every shard its sub-batch this way before it fans out.
func (ct *CrackedTable) CountBatchRun(attr string, ranges []Range, counts []int, write bool) (ok bool, err error) {
	if len(ranges) == 0 {
		return true, nil
	}
	var c *Column
	if write {
		if c, err = ct.ColumnFor(attr); err != nil {
			return false, err
		}
	} else if c, ok = ct.Column(attr); !ok {
		return false, nil
	}
	return c.countBatch(ranges, counts, ct.observer(attr), write), nil
}
