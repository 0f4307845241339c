package core

import (
	"cmp"
	"math"
	"slices"
)

// Folding pending updates into a cracked column. The paper leaves
// volatility as future work (§7: "what are the effects of updates on the
// scheme proposed?"); this is the repo's answer: one fold that keeps the
// cracker index.
//
// A pending value belongs to the piece whose bounding cuts admit it, so
// every cut above that piece has to move right by one — by s, for the s
// values of a batch that sort left of it. rippleWalk makes that one
// descending pass over the cuts: the piece under each crossed cut gives
// up min(s, piece length) tuples from its front to the slots its right
// neighbour just vacated (order inside a piece is free, so the rest of
// the piece stays put), the batch values that belong there follow, and
// the walk stops at the first cut nothing crosses. An append above the
// last cut is O(log p + k); deletes are one ascending compaction
// (compactLocked) that shifts each cut left by the tuples removed
// before it. DESIGN.md (Updates) has the cost model.

// foldKind is what a fold did with the index. A column's forceFold pins
// it for tests and ablations; the zero value lets the write count decide.
type foldKind uint8

const (
	foldByCost  foldKind = iota
	foldRipple           // cuts shifted in place, index kept
	foldRebuild          // batch appended, index dropped
)

func (k foldKind) String() string {
	switch k {
	case foldRipple:
		return "ripple"
	case foldRebuild:
		return "rebuild"
	}
	return ""
}

// rippleWalk folds a batch of keys, sorted ascending, into vectors of n
// tuples partitioned by ix. It is a free function over the index so any
// set of parallel vectors sharing one cut index can be folded: the
// vectors are the caller's, already grown to n+len(keys), and reached
// only through apply(dst, src, mv, from, to) — move the mv tuples at src
// to dst, then place the batch entries [from, to) behind them.
//
// With apply nil nothing moves and no cut is rewritten: the walk only
// counts, and gives up once the count passes limit. The count — tuples
// written (moved + placed) and cuts shifted — is exact: it is the same
// walk.
func rippleWalk(ix *Index, n int, keys []int64, limit int, apply func(dst, src, mv, from, to int)) (written, shifted int) {
	upper, j := n, len(keys) // old end of the piece being filled; batch entries at or below it
	ix.descend(func(c Cut) (int, bool) {
		s := j // batch entries that cross c
		for s > 0 && keys[s-1] >= c.Val {
			s--
		}
		mv := min(s, upper-c.Pos)
		if apply != nil {
			apply(upper+s-mv, c.Pos, mv, s, j)
		}
		written += mv + j - s
		upper, j = c.Pos, s
		if s == 0 || written+shifted >= limit {
			return c.Pos, false
		}
		shifted++
		if apply == nil {
			return c.Pos, true
		}
		return c.Pos + s, true
	})
	if j > 0 && written+shifted < limit { // ran off the smallest cut: the rest is the first piece's
		if apply != nil {
			apply(upper, 0, 0, 0, j)
		}
		written += j
	}
	return written, shifted
}

// consolidateLocked folds pending inserts and deletes into the value
// vector. Deletes compact in place and inserts ripple in, both keeping
// the index — unless rippling would write more than a reset costs: a
// column without cuts pays one partition pass over its n tuples at the
// next query, at most n tuple writes, so the index is dropped exactly
// when keeping it writes more than n (tuples moved + placed + cuts
// shifted, counted by the walk itself before anything moves).
func (c *Column) consolidateLocked() {
	if len(c.pending) == 0 && len(c.deleted) == 0 {
		return
	}
	c.touched = true
	c.stats.folded.Add(int64(len(c.pending) + len(c.deleted)))

	// An insert deleted while still pending never materializes.
	batch := c.pending[:0]
	for _, p := range c.pending {
		if _, gone := c.deleted[p.oid]; gone {
			delete(c.deleted, p.oid)
			continue
		}
		batch = append(batch, p)
	}
	c.pending = nil
	var written, shifted int
	if len(c.deleted) > 0 {
		written, shifted = c.compactLocked()
		clear(c.deleted) // whatever is left named no stored tuple
	}

	n, k := len(c.vals), len(batch)
	slices.SortFunc(batch, func(a, b pendingInsert) int {
		return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.oid, b.oid))
	})
	keys := make([]int64, k)
	for i, p := range batch {
		keys[i] = p.val
	}
	kind := c.forceFold
	if kind == foldByCost {
		kind = foldRipple
		if w, s := rippleWalk(c.idx, n, keys, n+1, nil); w+s > n {
			kind = foldRebuild
		}
	}

	// Lineage nodes and the crack log hold absolute positions, which the
	// fold is about to move: Lineage() re-roots from the index on demand.
	c.lin, c.reroot = nil, "after update"
	c.vals = slices.Grow(c.vals, k)[:n+k]
	c.oids = slices.Grow(c.oids, k)[:n+k]
	for _, pv := range c.pays {
		pv.vals = slices.Grow(pv.vals, k)[:n+k]
	}
	place := func(dst, src, mv, from, to int) {
		c.markLocked(dst, dst+mv+to-from)
		copy(c.vals[dst:dst+mv], c.vals[src:])
		copy(c.oids[dst:dst+mv], c.oids[src:])
		for i, p := range batch[from:to] {
			c.vals[dst+mv+i], c.oids[dst+mv+i] = p.val, p.oid
		}
		for _, pv := range c.pays {
			copy(pv.vals[dst:dst+mv], pv.vals[src:])
			for i, p := range batch[from:to] {
				pv.vals[dst+mv+i] = pv.pend[p.row]
			}
		}
	}
	if kind == foldRipple {
		w, s := rippleWalk(c.idx, n, keys, math.MaxInt, place)
		written, shifted = written+w, shifted+s
		c.stats.rippleFolds.Add(1)
	} else {
		place(n, 0, 0, 0, k)
		written += k
		c.idx.Reset()
		c.stats.rebuildFolds.Add(1)
	}
	for _, pv := range c.pays {
		pv.pend = pv.pend[:0]
	}
	c.stats.tuplesMoved.Add(int64(written))
	c.stats.cutsShifted.Add(int64(shifted))
}

// compactLocked removes the stored tuples named by c.deleted in one
// ascending pass, closing the gaps in place: every cut lands on the
// write cursor as the sweep reaches it, i.e. moves left by the tuples
// removed before it. O(n + p), index kept. Everything from the first slot
// it moved to the new end is marked for write-back.
func (c *Column) compactLocked() (written, shifted int) {
	r, w := 0, 0
	first := -1
	sweep := func(to int) {
		for ; r < to; r++ {
			if _, gone := c.deleted[c.oids[r]]; gone {
				continue
			}
			if w != r {
				if first < 0 {
					first = w
				}
				c.vals[w], c.oids[w] = c.vals[r], c.oids[r]
				for _, pv := range c.pays {
					pv.vals[w] = pv.vals[r]
				}
				written++
			}
			w++
		}
	}
	c.idx.ascend(func(cut Cut) (int, bool) {
		sweep(cut.Pos)
		if w != cut.Pos {
			shifted++
		}
		return w, true
	})
	sweep(len(c.vals))
	if first >= 0 {
		c.markLocked(first, w)
	}
	c.vals, c.oids = c.vals[:w], c.oids[:w]
	for _, pv := range c.pays {
		pv.vals = pv.vals[:w]
	}
	return written, shifted
}
