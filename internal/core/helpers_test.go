package core

import (
	"fmt"
	"math"
	"slices"

	"crackdb/internal/bat"
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

// Payload hooks for the fold oracle: payload values are a function of the
// OID, so alignment is checkable without a base table.

// AttachPayloadFunc gathers a payload vector holding f(oid) per tuple.
func AttachPayloadFunc(c *Column, attr string, f func(bat.OID) int64) error {
	c.mu.RLock()
	src := make([]int64, c.nextOID)
	c.mu.RUnlock()
	for oid := range src {
		src[oid] = f(bat.OID(oid))
	}
	_, err := c.attachPayload(attr, src, 0)
	return err
}

// InsertRow queues one insert the way CrackedTable.AppendColumns does, its
// payload values computed by fs[attr] from the OID it is about to get.
func InsertRow(c *Column, val int64, fs map[string]func(bat.OID) int64) bat.OID {
	oid := c.nextOID // the harness is the column's only writer
	c.appendRows([]int64{val}, func(attr string) []int64 { return []int64{fs[attr](oid)} })
	return oid
}

// CheckPayloads verifies that the column carries exactly the payloads of
// fs and that each holds fs[attr](oid) beside every stored and pending
// tuple.
func CheckPayloads(c *Column, fs map[string]func(bat.OID) int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.pays) != len(fs) {
		return fmt.Errorf("column carries %d payloads, want %d", len(c.pays), len(fs))
	}
	for _, p := range c.pays {
		f := fs[p.attr]
		if len(p.vals) != len(c.vals) || len(p.pend) != len(c.pending) {
			return fmt.Errorf("payload %q: %d values and %d pending beside %d tuples and %d pending",
				p.attr, len(p.vals), len(p.pend), len(c.vals), len(c.pending))
		}
		for i, oid := range c.oids {
			if p.vals[i] != f(oid) {
				return fmt.Errorf("payload %q[%d] = %d beside oid %d, want %d", p.attr, i, p.vals[i], oid, f(oid))
			}
		}
		for _, q := range c.pending {
			if p.pend[q.row] != f(q.oid) {
				return fmt.Errorf("payload %q pending row %d = %d beside oid %d, want %d", p.attr, q.row, p.pend[q.row], q.oid, f(q.oid))
			}
		}
	}
	return nil
}
