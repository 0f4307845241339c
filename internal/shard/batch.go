// Batched counting across shards: a batch of ranges fans out as one
// frame of work per shard. Each target shard receives its sub-batch —
// the predicates whose key interval overlaps the shard — and executes
// it under a single shard-store entry (crackdb.Store.CountBatch), so the
// shard-store entry and column resolution the scalar path pays per
// query are paid once per shard per batch. The shard answers its
// sub-batch's ranges in submission order, as it would count them sent
// alone, the converged ones a run at a time under one read hold of the
// column (core's countBatch). gather's pass 1 offers each shard its
// sub-batch read-only on the calling goroutine (crackdb.Store.ReadBatch):
// a shard whose index resolves every range answers there, under one read
// hold, and a converged batch starts no goroutine. A shard that must
// create its cracker column, fold pending updates or crack declines
// having changed nothing, and pass 2 counts its sub-batch as before, the
// declined shards concurrently. Per-predicate counts sum.
package shard

import (
	"crackdb"
)

// subBatch is the slice of a batch routed to one shard: the ranges that
// visit it, in submission order, and the segment of one counts array
// that its answers fill, a slot a range.
type subBatch struct {
	ranges []crackdb.Range
	counts []int
}

// routeBatch groups a batch of inclusive ranges into per-shard
// sub-batches, each range going to the shards span names. A first pass
// counts each shard's share. A shard every range visits — on a hash
// table, every shard, unless a range is empty — is handed ranges itself;
// the other shards' ranges are cut from one exactly sized array, and
// every shard's counts from one more.
func routeBatch(ranges []crackdb.Range, shards int, span func(crackdb.Range) (first, last int)) []subBatch {
	share := make([]int, shards)
	total, cut := 0, 0
	for _, r := range ranges {
		first, last := span(r)
		for t := first; t <= last; t++ {
			share[t]++
		}
	}
	for _, n := range share {
		total += n
		if n < len(ranges) {
			cut += n
		}
	}
	sub := make([]subBatch, shards)
	counts, rs := make([]int, total), make([]crackdb.Range, cut)
	for t, n := range share {
		sub[t].counts, counts = counts[:n:n], counts[n:]
		if n == len(ranges) {
			sub[t].ranges = ranges
		} else {
			sub[t].ranges, rs = rs[:0:n], rs[n:]
		}
	}
	for _, r := range ranges {
		first, last := span(r)
		for t := first; t <= last; t++ {
			if share[t] < len(ranges) {
				sub[t].ranges = append(sub[t].ranges, r)
			}
		}
	}
	return sub
}

// CountBatch answers many inclusive ranges on one column, fanning out
// one sub-batch per target shard and summing, by walking the routing
// again, the per-shard counts per predicate. Counts come back in
// submission order. Ranges on the partition key prune to the shard span
// that can hold qualifying keys; ranges on any other column visit every
// shard. Empty ranges (Low > High) are routed nowhere — their answer is
// zero tuples on every shard — so col is checked here, not by a shard.
func (s *Store) CountBatch(table, col string, ranges []crackdb.Range) ([]int, error) {
	m, part, err := s.meta(table)
	if err != nil {
		return nil, err
	}
	if err := m.hasColumn(table, col); err != nil {
		return nil, err
	}
	span := func(r crackdb.Range) (first, last int) {
		if r.Low > r.High {
			return 0, -1
		}
		if col == m.key {
			return part.span(r.Low, r.High)
		}
		return 0, len(s.shards) - 1
	}
	sub := routeBatch(ranges, len(s.shards), span)
	s.noteRoutedBatch(sub)
	if _, err := gather(0, len(s.shards)-1, func(i int) (struct{}, bool, error) {
		if len(sub[i].ranges) == 0 {
			return struct{}{}, true, nil
		}
		ok, err := s.shards[i].ReadBatch(table, col, sub[i].ranges, sub[i].counts)
		return struct{}{}, ok, err
	}, func(i int) (struct{}, error) {
		counts, err := s.shards[i].CountBatch(table, col, sub[i].ranges)
		copy(sub[i].counts, counts)
		return struct{}{}, err
	}); err != nil {
		return nil, err
	}
	counts := make([]int, len(ranges))
	for i, r := range ranges {
		first, last := span(r)
		for t := first; t <= last; t++ {
			counts[i] += sub[t].counts[0]
			sub[t].counts = sub[t].counts[1:]
		}
	}
	return counts, nil
}
