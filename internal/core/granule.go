package core

import "math/bits"

// Granule is the unit a checkpoint writes back: 512 consecutive positions
// of a column, 4 KiB of its value vector. The paper counts cost in
// granules, "tuples or disk pages" (§2.2), and wants the reorganized
// incarnation "written back to persistent store" (§1); a column therefore
// remembers which granules it wrote since its last image element, and the
// element carries the OIDs of those granules instead of the column.
// It is a constant, not a knob: a query's write-back is the pieces it
// partitioned rounded out to granules.
const Granule = 512

// granuleCount is the number of granules covering n positions.
func granuleCount(n int) int { return (n + Granule - 1) / Granule }

// granuleSpan is the position range [lo, hi) of granule g in a column of
// n positions; the last granule may be short.
func granuleSpan(g, n int) (lo, hi int) { return g * Granule, min((g+1)*Granule, n) }

// granules is a set of granule indexes, one bit each.
type granules []uint64

// mark adds every granule overlapping the positions [lo, hi) and returns
// how many were not marked yet.
func (s *granules) mark(lo, hi int) (fresh int) {
	if lo >= hi {
		return 0
	}
	last := (hi - 1) / Granule
	if need := last/64 + 1; need > len(*s) {
		*s = append(*s, make(granules, need-len(*s))...)
	}
	for g := lo / Granule; g <= last; g++ {
		w, b := g/64, uint64(1)<<(g%64)
		if (*s)[w]&b == 0 {
			(*s)[w] |= b
			fresh++
		}
	}
	return fresh
}

// list returns the marked granules of a column of n positions, ascending
// and never nil (a nil list means "the whole column" to exportLocked).
// Marks past the end — left by a compaction that shrank the column — are
// not listed.
func (s granules) list(n int) []int {
	out := []int{}
	limit := granuleCount(n)
	for w, word := range s {
		for word != 0 {
			g := w*64 + bits.TrailingZeros64(word)
			if g >= limit {
				return out
			}
			out = append(out, g)
			word &= word - 1
		}
	}
	return out
}

// markLocked records that the column wrote the positions [lo, hi). The
// caller holds the write lock.
func (c *Column) markLocked(lo, hi int) {
	if fresh := c.dirty.mark(lo, hi); fresh > 0 {
		c.stats.granulesDirtied.Add(int64(fresh))
	}
}

// markWholeLocked marks every granule: the record must carry the column
// whole (a sort, a new column).
func (c *Column) markWholeLocked() {
	c.markLocked(0, len(c.vals))
	c.touched = true
}
