package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crackdb/internal/expr"
	"crackdb/internal/obs"
)

// convergedInstr builds a fully-instrumented column whose cut grid is
// already in place, so every Select in the test body runs the converged
// read path.
func convergedInstr(n, cells int, mask uint64) (*Column, *Instr) {
	vals := make([]int64, n)
	r := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = r.Int63n(int64(n))
	}
	in := &Instr{
		ReadHold:   new(obs.Histogram),
		WriteHold:  new(obs.Histogram),
		Batch:      new(obs.Histogram),
		Trace:      obs.NewTraceBuf(256),
		SampleMask: mask,
	}
	c := NewColumn("k", vals, WithInstr(in))
	step := int64(n / cells)
	if step == 0 {
		step = 1
	}
	for lo := int64(0); lo < int64(n); lo += step {
		c.Select(lo, lo+step, true, false)
	}
	return c, in
}

// TestMetricsConcurrentConvergedLookups is the ISSUE 7 contention test:
// converged lookups with metrics enabled must keep running in parallel
// — the instrumented read path touches only per-column atomics, never a
// registry lock — and the sampled histogram must account a plausible
// share of the traffic. Run under -race this also proves the Instr
// attach/record paths are data-race free.
func TestMetricsConcurrentConvergedLookups(t *testing.T) {
	const n, cells = 200000, 64
	c, in := convergedInstr(n, cells, 0) // mask 0: every lookup sampled
	before := c.Stats().Queries

	workers := runtime.GOMAXPROCS(0) * 2
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			step := int64(n / cells)
			for i := 0; i < perWorker; i++ {
				lo := r.Int63n(int64(cells)) * step
				v := c.Select(lo, lo+step, true, false)
				if v.Len() == 0 && lo < int64(n) {
					t.Errorf("converged lookup [%d, %d) came back empty", lo, lo+step)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if got := int64(c.Stats().Queries - before); got != total {
		t.Fatalf("queries counter: got %d want %d", got, total)
	}
	// Every lookup was converged and sampled, so the read-hold histogram
	// must have recorded all of them.
	if got := in.ReadHold.Snapshot().Count; got != uint64(total) {
		t.Fatalf("read-hold histogram count: got %d want %d", got, total)
	}
	// No crack events after convergence: the write path never ran.
	if evs := in.Trace.Since(0); len(evs) == 0 {
		t.Fatal("warm-up cracking must have left trace events")
	}
}

// TestInstrSampling pins the mask semantics: mask 255 samples 1/256 of
// converged lookups into ReadHold.
func TestInstrSampling(t *testing.T) {
	const n, cells = 50000, 16
	c, in := convergedInstr(n, cells, 255)
	base := in.ReadHold.Snapshot().Count
	step := int64(n / cells)
	const lookups = 2560
	for i := 0; i < lookups; i++ {
		c.Select(0, step, true, false)
	}
	got := in.ReadHold.Snapshot().Count - base
	if want := uint64(lookups / 256); got != want {
		t.Fatalf("sampled observations: got %d want %d", got, want)
	}
}

// TestConvergedReadsTimed: with every read sampled, a converged Project
// adds exactly one ReadHold observation, as a converged Count does — a
// projection reads through the same lock protocol as every other range.
func TestConvergedReadsTimed(t *testing.T) {
	const n, cells = 4096, 16
	c, in := convergedInstr(n, cells, 0)
	step := int64(n / cells)
	r := expr.Range{Col: "k", Low: step, High: 2 * step, LowIncl: true}
	_, sel := c.SelectCopy(r.Low, r.High, r.LowIncl, r.HighIncl)
	writes := in.WriteHold.Snapshot().Count
	for _, read := range []struct {
		name string
		run  func()
	}{
		{"Project", func() {
			if _, st := c.Project(r, []string{"k"}, sel, 1); st != Projected {
				t.Fatalf("converged projection: status %d", st)
			}
		}},
		{"Count", func() { c.Count(r.Low, r.High, r.LowIncl, r.HighIncl) }},
	} {
		base := in.ReadHold.Snapshot().Count
		read.run()
		if got := in.ReadHold.Snapshot().Count - base; got != 1 {
			t.Fatalf("converged %s: %d read-hold observations, want 1", read.name, got)
		}
	}
	if got := in.WriteHold.Snapshot().Count; got != writes {
		t.Fatalf("converged reads took %d write holds", got-writes)
	}
}

// TestInstrCrackEvents asserts that a query which cracks produces a
// trace event carrying its bounds and nonzero work deltas.
func TestInstrCrackEvents(t *testing.T) {
	vals := make([]int64, 10000)
	r := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = r.Int63n(10000)
	}
	in := &Instr{WriteHold: new(obs.Histogram), Trace: obs.NewTraceBuf(64)}
	c := NewColumn("k", vals)
	c.SetInstr(in)
	mark := in.Trace.Mark()
	c.Select(1000, 2000, true, false)
	evs := in.Trace.Since(mark)
	if len(evs) != 1 {
		t.Fatalf("one cracking select must record one event, got %d", len(evs))
	}
	ev := evs[0]
	if ev.Column != "k" || ev.Low != 1000 || ev.High != 2000 {
		t.Fatalf("event identity wrong: %+v", ev)
	}
	if ev.Cracks == 0 || ev.CutsAdded == 0 || ev.TuplesTouched == 0 {
		t.Fatalf("event must carry crack work: %+v", ev)
	}
	if in.WriteHold.Snapshot().Count != 1 {
		t.Fatal("write-hold histogram must have one observation")
	}
	// The repeat is converged: no new event.
	mark = in.Trace.Mark()
	c.Select(1000, 2000, true, false)
	if evs := in.Trace.Since(mark); len(evs) != 0 {
		t.Fatalf("converged repeat must not trace, got %+v", evs)
	}
}

// TestTableSetInstr covers live attach: existing and future columns both
// pick up the instrumentation.
func TestTableSetInstr(t *testing.T) {
	ct := NewCrackedTable(buildTable(t))
	if _, err := ct.ColumnFor("a"); err != nil {
		t.Fatal(err)
	}
	in := &Instr{WriteHold: new(obs.Histogram), Trace: obs.NewTraceBuf(64)}
	ct.SetInstr(in)
	mark := in.Trace.Mark()
	if _, err := ct.CountRange(rangeOf("a", 10, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.CountRange(rangeOf("b", 85, 95)); err != nil { // created after SetInstr
		t.Fatal(err)
	}
	evs := in.Trace.Since(mark)
	if len(evs) != 2 {
		t.Fatalf("both columns must trace their cracks, got %d events", len(evs))
	}
	if evs[0].Column == evs[1].Column {
		t.Fatalf("events must come from distinct columns: %+v", evs)
	}
}

// TestFoldEventsRecorded: a fold that reorganized the column — moved a
// cut, or dropped the index — reaches the crack-event ring even when the
// statement that triggered it cracked nothing; an append above the last
// cut stays as quiet as a lookup.
func TestFoldEventsRecorded(t *testing.T) {
	const n, cells = 4096, 16
	c, in := convergedInstr(n, cells, 255)
	mark := in.Trace.Mark()
	step := int64(n / cells)
	converged := func() { c.Select(step, 2*step, true, false) }

	for i := 0; i < 8; i++ {
		c.Insert(int64(n) + int64(i)) // above every cut
	}
	converged()
	if evs := in.Trace.Since(mark); len(evs) != 0 {
		t.Fatalf("an append above the last cut recorded %d events: %+v", len(evs), evs)
	}

	c.Insert(5) // below every cut but the first
	c.Delete(0)
	converged()
	evs := in.Trace.Since(mark)
	if len(evs) != 1 || evs[0].Fold != "ripple" || evs[0].Folded != 2 || evs[0].Cracks != 0 || evs[0].TuplesMoved == 0 {
		t.Fatalf("cut-moving fold: events %+v", evs)
	}

	mark = in.Trace.Mark()
	c.forceFold = foldRebuild
	c.Insert(7)
	converged() // the index is gone: this one re-cracks too
	evs = in.Trace.Since(mark)
	if len(evs) != 1 || evs[0].Fold != "rebuild" || evs[0].Folded != 1 || evs[0].Cracks == 0 {
		t.Fatalf("rebuilding fold: events %+v", evs)
	}
}
