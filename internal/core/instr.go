package core

import (
	"time"

	"crackdb/internal/obs"
)

// Instr is the per-column instrumentation hook: latency histograms for
// the three query paths and the crack-event trace ring. A column holds
// it behind an atomic pointer — when nil (the default) the only cost on
// the hot path is one atomic load and a branch.
//
// The converged read path runs in ~100ns, so timing every lookup would
// itself be the dominant cost. ReadHold observations are therefore
// sampled: a query is timed iff queries&SampleMask == 0 (mask 255 =
// 1/256). The write-hold path cracks — microseconds of partitioning —
// so it is always timed, and its lock-hold duration plus the crack
// deltas it produced become a CrackEvent in Trace.
type Instr struct {
	ReadHold  *obs.Histogram // converged lookups under the read lock (sampled)
	WriteHold *obs.Histogram // cracking queries under the write lock (always)
	Batch     *obs.Histogram // whole calls of two or more ranges (always); a range that cracks is also a WriteHold, a converged one is timed here alone

	Trace *obs.TraceBuf // crack events; nil disables tracing
	Shard int           // stamped into trace events

	// SampleMask gates read-hold timing: sample iff queries&mask == 0.
	// 0 times every read (figures/tests); 255 is the production default.
	SampleMask uint64
}

// WithInstr attaches instrumentation at construction time.
func WithInstr(in *Instr) Option {
	return func(c *Column) {
		if in != nil {
			c.instr.Store(in)
		}
	}
}

// SetInstr attaches (or replaces) instrumentation on a live column.
// Safe under concurrent queries: the pointer swap is atomic and
// in-flight queries finish against whichever Instr they loaded.
func (c *Column) SetInstr(in *Instr) { c.instr.Store(in) }

// SetInstr attaches instrumentation to every current column and to
// every column the table will materialize later.
func (t *CrackedTable) SetInstr(in *Instr) {
	t.mu.Lock()
	t.opts = append(t.opts, WithInstr(in))
	cols := make([]*Column, 0, len(t.cols))
	for _, c := range t.cols {
		cols = append(cols, c)
	}
	t.mu.Unlock()
	for _, c := range cols {
		c.SetInstr(in)
	}
}

// holdState captures the column's work counters at write-lock entry so
// finishWriteHold can attribute the hold's deltas to one CrackEvent.
// The caller must hold the write lock across begin/finish.
type holdState struct {
	start time.Time
	cuts  int
	stats Stats
}

func (c *Column) beginWriteHoldLocked() holdState {
	return holdState{start: time.Now(), cuts: c.idx.Len(), stats: c.stats.snapshot()}
}

// finishWriteHold observes the hold duration and, when the hold
// physically reorganized the column, records a CrackEvent carrying the
// advising range's inclusive bounds and the work deltas. An update fold
// counts as reorganization when it moved a cut or dropped the index; one
// that only appended above the last cut is as quiet as a lookup.
func (c *Column) finishWriteHold(in *Instr, hs holdState, r Range) {
	holdNS := time.Since(hs.start).Nanoseconds()
	if in.WriteHold != nil {
		in.WriteHold.Observe(holdNS)
	}
	d := c.stats.snapshot().Sub(hs.stats)
	cutsAdded := c.idx.Len() - hs.cuts
	var fold foldKind // zero: no fold in this hold
	switch {
	case d.RebuildFolds != 0:
		fold = foldRebuild
	case d.Folded > 0:
		fold = foldRipple
	}
	if d.Cracks == 0 && cutsAdded == 0 && fold != foldRebuild && d.CutsShifted == 0 {
		return // lost race, or a fold that left every cut where it was: nothing reorganized
	}
	in.Trace.Record(obs.CrackEvent{
		Shard:         in.Shard,
		Column:        c.name,
		Low:           r.Low,
		High:          r.High,
		Cracks:        int64(d.Cracks),
		CutsAdded:     int64(cutsAdded),
		TuplesTouched: d.TuplesTouched,
		TuplesMoved:   d.TuplesMoved,
		HoldNS:        holdNS,
		Fold:          fold.String(),
		Folded:        d.Folded,
	})
}
