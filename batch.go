package crackdb

import "crackdb/internal/core"

// Range is one inclusive batch predicate: Low <= col <= High, empty when
// Low > High — the form a range takes below the planner, which the
// store's column answers as it is.
type Range = core.Range

// CountBatch counts many inclusive ranges over one column in a single
// store entry: the table registry and cracker column are resolved once,
// and the ranges are answered in submission order, each run of converged
// ones under one read hold of the column — so the batch cracks exactly as
// the same Counts sent one by one would. The
// counts come back in submission order. An empty batch creates nothing.
func (s *Store) CountBatch(table, col string, ranges []Range) ([]int, error) {
	counts := make([]int, len(ranges))
	if _, err := s.countBatch(table, col, ranges, counts, true); err != nil {
		return nil, err
	}
	return counts, nil
}

// ReadBatch offers a batch to the store read-only, as ReadWhere offers a
// conjunction. When the column's cracker index resolves every range and
// no update is pending, it counts into counts, a slot a range, as
// CountBatch does, under one read hold. Otherwise it declines: ok is
// false and nothing but counts changed — no cracker column created, no
// statistic, no timing, not the auto-tuner's view of the workload — so
// CountBatch can answer the batch next as if the offer had never been
// made. An error is the one CountBatch would return, never a decline.
// The shard router offers every shard its sub-batch this way first.
func (s *Store) ReadBatch(table, col string, ranges []Range, counts []int) (ok bool, err error) {
	return s.countBatch(table, col, ranges, counts, false)
}

// countBatch is CountBatch into counts, and ReadBatch with write false.
func (s *Store) countBatch(table, col string, ranges []Range, counts []int, write bool) (bool, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return false, err
	}
	return ct.CountBatchRun(col, ranges, counts, write)
}
