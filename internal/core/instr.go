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
	start    time.Time
	cuts     int
	cracks   int64
	touched  int64
	moved    int64
	rebuilds int64
	shifted  int64
	folded   int64
}

func (c *Column) beginWriteHoldLocked() holdState {
	return holdState{
		start:   time.Now(),
		cuts:    c.idx.Len(),
		cracks:  c.stats.cracks.Load(),
		touched: c.stats.tuplesTouched.Load(),
		moved:   c.stats.tuplesMoved.Load(),

		rebuilds: c.stats.rebuildFolds.Load(),
		shifted:  c.stats.cutsShifted.Load(),
		folded:   c.stats.folded.Load(),
	}
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
	cracks := c.stats.cracks.Load() - hs.cracks
	cutsAdded := c.idx.Len() - hs.cuts
	folded := c.stats.folded.Load() - hs.folded
	var fold foldKind // zero: no fold in this hold
	switch {
	case c.stats.rebuildFolds.Load() != hs.rebuilds:
		fold = foldRebuild
	case folded > 0:
		fold = foldRipple
	}
	if cracks == 0 && cutsAdded == 0 && fold != foldRebuild && c.stats.cutsShifted.Load() == hs.shifted {
		return // lost race, or a fold that left every cut where it was: nothing reorganized
	}
	in.Trace.Record(obs.CrackEvent{
		Shard:         in.Shard,
		Column:        c.name,
		Low:           r.Low,
		High:          r.High,
		Cracks:        cracks,
		CutsAdded:     int64(cutsAdded),
		TuplesTouched: c.stats.tuplesTouched.Load() - hs.touched,
		TuplesMoved:   c.stats.tuplesMoved.Load() - hs.moved,
		HoldNS:        holdNS,
		Fold:          fold.String(),
		Folded:        folded,
	})
}
