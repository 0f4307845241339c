package core

import (
	"slices"
	"sync"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Batched selection: many range predicates over one cracker column
// answered in one call, one range after another in submission order,
// each through Column.answer — the lock protocol every scalar read
// runs. A batch therefore leaves the column exactly as the same ranges
// sent one by one would: the same cuts, in the same order, with the
// same strategy consulted for each. What it amortizes is everything
// around the column: the registry and column resolution, the result
// allocation, and the caller's per-query overhead.

// BatchAnswer is one predicate's answer within a column batch. For a
// counting batch only N is set. For a selecting batch Vals and OIDs are
// three-index subslices of backing arrays shared by the whole batch —
// one amortized allocation instead of two per query — and N equals
// len(Vals). The subslices are copies taken while the column lock was
// held, so they stay valid under later cracking.
type BatchAnswer struct {
	Vals []int64
	OIDs []bat.OID
	N    int
}

// BatchRun owns the answers of one batch execution. Acquire one from
// the pool, run batches through it, Release it when the Answers are
// consumed. The pool is why a converged CountBatch allocates nothing
// but the counts it returns.
//
// Only the slice header is pooled. The Vals/OIDs backing arrays a
// selecting batch fills are freshly allocated each run, because they
// escape into the caller's results. A released run may keep the
// previous batch's tail elements (beyond the next batch's length)
// reachable until overwritten; that retention is bounded by one batch.
type BatchRun struct {
	// Answers is filled by SelectBatchRun, in submission order. The
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

// SelectBatch answers every range of the batch and returns the answers
// plus the execution order (order[k] is the submission index executed
// k-th), which is submission order. It is the self-contained form of
// SelectBatchRun for callers that hold onto the answers. ordered asks
// for nothing, as in SelectBatchRun.
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

// SelectBatchRun answers every range of the batch into r.Answers, in
// submission order, each through answer exactly as Select would. With
// countOnly nothing is materialized; only BatchAnswer.N is set. ordered
// asks for nothing: every batch runs in submission order, and the
// parameter stays only for callers compiled against it.
func (c *Column) SelectBatchRun(ranges []expr.Range, ordered, countOnly bool, run *BatchRun) {
	c.selectBatch(ranges, countOnly, run, nil)
}

// selectBatch is SelectBatchRun, showing observe (when non-nil) each
// range right after it is answered, outside the column lock.
func (c *Column) selectBatch(ranges []expr.Range, countOnly bool, run *BatchRun, observe func(expr.Range)) {
	if in := c.instr.Load(); in != nil && in.Batch != nil {
		// A batch is tens of queries per call, so whole-call timing is
		// already amortized — no sampling needed.
		t0 := time.Now()
		defer func() { in.Batch.Observe(time.Since(t0).Nanoseconds()) }()
	}
	// Cleared up front, so the loop stores only counts: a pooled element
	// may hold a previous batch's Vals/OIDs.
	answers := slices.Grow(run.Answers[:0], len(ranges))[:len(ranges)]
	clear(answers)
	run.Answers = answers
	var vals []int64
	var oids []bat.OID
	n := 0
	use := func(v View) {
		n = v.Len()
		if !countOnly {
			vals = append(vals, v.Values()...)
			oids = append(oids, v.OIDs()...)
		}
	}
	for i := range ranges {
		r := &ranges[i]
		c.answer(r.Low, r.High, r.LowIncl, r.HighIncl, true, use)
		answers[i].N = n
		if observe != nil {
			observe(*r)
		}
	}
	if !countOnly {
		// The buffers stopped growing: cut each answer's window, in the
		// order the windows were appended.
		at := 0
		for i := range answers {
			end := at + answers[i].N
			answers[i].Vals, answers[i].OIDs = vals[at:end:end], oids[at:end:end]
			at = end
		}
	}
}

// SelectBatchRun answers a batch of ranges on one attribute into the
// run, resolving the cracker column once for the whole batch. Every
// range must name the attr column. The select observer sees each range
// right after it is answered, as it does for a scalar count.
func (ct *CrackedTable) SelectBatchRun(attr string, ranges []expr.Range, countOnly bool, run *BatchRun) error {
	c, err := ct.ColumnFor(attr)
	if err != nil {
		return err
	}
	c.selectBatch(ranges, countOnly, run, ct.selectObs)
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
