package core

import (
	"math"
	"slices"

	"crackdb/internal/expr"
)

// Shared test helpers for building predicates tersely.

func rangeOf(col string, lo, hi int64) expr.Range {
	return expr.Range{Col: col, Low: lo, High: hi, LowIncl: true, HighIncl: true}
}

func termGE_LT(col string, lo, hi int64) expr.Term {
	return expr.Term{
		{Col: col, Op: expr.Ge, Val: lo},
		{Col: col, Op: expr.Lt, Val: hi},
	}
}

func predLT(col string, v int64) expr.Term {
	return expr.Term{{Col: col, Op: expr.Lt, Val: v}}
}

// Hooks into the update fold, exported for the external test package
// (core_test, which can import internal/strategy; this package cannot).

const (
	FoldByCost  = foldByCost
	FoldRipple  = foldRipple
	FoldRebuild = foldRebuild
)

// WithFold pins the update fold a column takes.
func WithFold(k foldKind) Option { return func(c *Column) { c.forceFold = k } }

// DryRunFold is rippleWalk's no-move count for the column's pending
// inserts. It is the count the next fold performs only while no delete
// is pending (deletes compact first, moving the cuts the walk reads).
func DryRunFold(c *Column) (written, shifted int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]int64, len(c.pending))
	for i, p := range c.pending {
		keys[i] = p.val
	}
	slices.Sort(keys)
	return rippleWalk(c.idx, len(c.vals), keys, math.MaxInt, nil)
}

// PendingDeletes reports how many deletes await the next fold.
func PendingDeletes(c *Column) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.deleted)
}
