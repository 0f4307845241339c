package crackdb

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// aggressiveTune reacts within a few dozen queries so the oracle runs
// flip several times inside a small stream.
func aggressiveTune() tuner.Config {
	return tuner.Config{Window: 16, Confirm: 1, Cooldown: 32, Monotone: 0.85}
}

// TestAutotuneConvergence pins the decision engine's two acceptance
// behaviors at store level: a sequential walk on a standard store flips
// the walked column to ddr, and a random stream leaves it on standard
// with zero flips.
func TestAutotuneConvergence(t *testing.T) {
	run := func(pattern workload.Pattern) *Store {
		s := New()
		s.EnableAutotune(tuner.Config{Window: 16, Confirm: 2, Cooldown: 64, Monotone: 0.85})
		if err := s.CreateTable("c", "a"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		rows := make([][]int64, 5000)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(5000)}
		}
		if err := s.InsertRows("c", rows); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(pattern, workload.Config{Domain: 5000, Count: 400, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range gen.Queries() {
			if _, err := s.Count("c", "a", q.Lo, q.Hi-1); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	seq := run(workload.Sequential).TuneDecisions()
	if len(seq) != 1 || seq[0].Strategy != "ddr" || seq[0].Flips == 0 || seq[0].Class != "sequential" {
		t.Fatalf("sequential decisions = %+v, want ddr with flips > 0", seq)
	}
	rnd := run(workload.Random).TuneDecisions()
	if len(rnd) != 1 || rnd[0].Strategy != "standard" || rnd[0].Flips != 0 {
		t.Fatalf("random decisions = %+v, want standard with 0 flips", rnd)
	}
}

// TestDropTableForgetsTuner: a dropped table's monitors go with it. A
// column forced to ddr, dropped and created again under the same name
// has no monitor — no pin, no queries — and a sequential walk on it
// flips it to ddr by itself; a pin that outlived the drop would keep the
// new column on standard for good.
func TestDropTableForgetsTuner(t *testing.T) {
	s := New()
	s.EnableAutotune(tuner.Config{Window: 16, Confirm: 2, Cooldown: 64, Monotone: 0.85})
	create := func() {
		if err := s.CreateTable("t", "c0"); err != nil {
			t.Fatal(err)
		}
		rows := make([][]int64, 5000)
		for i := range rows {
			rows[i] = []int64{int64(i * 7919 % 5000)}
		}
		if err := s.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	create()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Count("t", "c0", 400*i, 400*i+99); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ForceStrategy("t", "c0", "ddr"); err != nil {
		t.Fatal(err)
	}
	if d := s.TuneDecisions(); len(d) != 1 || !d[0].Forced || d[0].Queries != 10 {
		t.Fatalf("before the drop: decisions = %+v, want t.c0 forced after 10 queries", d)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	create()
	if d := s.TuneDecisions(); len(d) != 0 {
		t.Fatalf("after drop and re-create: decisions = %+v, want none (unforced, 0 queries)", d)
	}
	gen, err := workload.New(workload.Sequential, workload.Config{Domain: 5000, Count: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries() {
		if _, err := s.Count("t", "c0", q.Lo, q.Hi-1); err != nil {
			t.Fatal(err)
		}
	}
	d := s.TuneDecisions()
	if len(d) != 1 || d[0].Forced || d[0].Strategy != "ddr" || d[0].Flips == 0 || d[0].Queries != 400 {
		t.Fatalf("sequential walk on the new table: decisions = %+v, want t.c0 unforced, flipped to ddr, 400 queries", d)
	}
}

// TestAutotuneBatchOrder: the tuner sees a batch's ranges in the order
// they were sent, as it would see the same counts sent one by one. A
// random stream counted in batches of 64 leaves the column on standard,
// classed random, with no flip; the same stream walked sequentially
// still flips it to ddr. A batch that sorted its ranges by bound would
// show the tuner a sequential walk inside every batch of random ones.
func TestAutotuneBatchOrder(t *testing.T) {
	run := func(pattern workload.Pattern) tuner.Decision {
		const n = 200_000
		s := New()
		s.EnableAutotune(tuner.Config{})
		if err := s.LoadTapestry("t", n, 1, 1); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(pattern, workload.Config{Domain: n, Count: 4096, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		qs := gen.Queries()
		for i := 0; i < len(qs); i += 64 {
			batch := make([]Range, 0, 64)
			for _, q := range qs[i:min(i+64, len(qs))] {
				batch = append(batch, Range{Low: q.Lo, High: q.Hi - 1})
			}
			if _, err := s.CountBatch("t", "c0", batch); err != nil {
				t.Fatal(err)
			}
		}
		dec := s.TuneDecisions()
		if len(dec) != 1 {
			t.Fatalf("%s: decisions = %+v, want one for t.c0", pattern, dec)
		}
		return dec[0]
	}
	if d := run(workload.Random); d.Strategy != "standard" || d.Class != "random" || d.Flips != 0 {
		t.Errorf("random stream in batches of 64: %+v, want standard, class random, 0 flips", d)
	}
	if d := run(workload.Sequential); d.Strategy != "ddr" || d.Class != "sequential" || d.Flips == 0 {
		t.Errorf("sequential stream in batches of 64: %+v, want ddr, class sequential, flips > 0", d)
	}
}

// TestAutotuneFlipUnderConcurrentSelect races strategy flips (auto and
// forced) against concurrent selects on the same column — the swap is
// write-locked and the observer runs outside all locks, so every answer
// must stay exact. Run with -race.
func TestAutotuneFlipUnderConcurrentSelect(t *testing.T) {
	s := New()
	s.EnableAutotune(tuner.Config{Window: 8, Confirm: 1, Cooldown: 8, Monotone: 0.85})
	if err := s.CreateTable("r", "a"); err != nil {
		t.Fatal(err)
	}
	const domain = 4000
	counts := make([]int, domain) // value -> multiplicity
	rng := rand.New(rand.NewSource(4))
	rows := make([][]int64, 4000)
	for i := range rows {
		v := rng.Int63n(domain)
		rows[i] = []int64{v}
		counts[v]++
	}
	prefix := make([]int, domain+1) // prefix[i] = rows with value < i
	for i := 0; i < domain; i++ {
		prefix[i+1] = prefix[i] + counts[i]
	}
	if err := s.InsertRows("r", rows); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pattern := workload.Sequential
			if g%2 == 1 {
				pattern = workload.Random
			}
			gen, err := workload.New(pattern, workload.Config{Domain: domain, Count: 300, Seed: int64(g)})
			if err != nil {
				t.Error(err)
				return
			}
			for _, q := range gen.Queries() {
				n, err := s.Count("r", "a", q.Lo, q.Hi-1)
				if err != nil {
					t.Error(err)
					return
				}
				if want := prefix[q.Hi] - prefix[q.Lo]; n != want {
					t.Errorf("count [%d,%d) = %d, want %d", q.Lo, q.Hi, n, want)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := []string{"ddr", "standard"}[i%2]
			if err := s.ForceStrategy("r", "a", name); err != nil {
				t.Error(err)
				return
			}
			if err := s.ReleaseStrategy("r", "a"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestWarmReopenAutotune: a flipped column's strategy survives Save/Open
// in its own column record, so the reopened store runs it even before
// autotune is re-enabled; the tuner's own posture does not survive. A
// re-enabled tuner starts the column's monitor from the strategy the
// column runs, with no flips counted.
func TestWarmReopenAutotune(t *testing.T) {
	live := New()
	live.EnableAutotune(aggressiveTune())
	if err := live.CreateTable("p", "a"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	rows := make([][]int64, 4000)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(4000)}
	}
	if err := live.InsertRows("p", rows); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.Sequential, workload.Config{Domain: 4000, Count: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries() {
		if _, err := live.Count("p", "a", q.Lo, q.Hi-1); err != nil {
			t.Fatal(err)
		}
	}
	before := live.TuneDecisions()
	if len(before) != 1 || before[0].Strategy != "ddr" || before[0].Flips == 0 {
		t.Fatalf("live decisions = %+v, want a flipped ddr column", before)
	}

	dir := filepath.Join(t.TempDir(), "store.crk")
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The flipped per-column strategy is already active before autotune
	// is re-enabled.
	stats, err := re.CrackedColumnStats("p")
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["a"].Strategy; got != "ddr" {
		t.Fatalf("reopened column runs %q, want ddr", got)
	}
	if d := re.TuneDecisions(); d != nil {
		t.Fatalf("TuneDecisions before enable = %+v, want nil", d)
	}
	re.EnableAutotune(aggressiveTune())
	if d := re.TuneDecisions(); len(d) != 0 {
		t.Fatalf("a re-enabled tuner monitors %+v before any query, want nothing", d)
	}
	// The reopened store answers exactly, and the fresh monitor starts
	// from the column's own strategy.
	for lo := int64(0); lo < 4000; lo += 400 {
		want := 0
		for _, r := range rows {
			if r[0] >= lo && r[0] <= lo+200 {
				want++
			}
		}
		got, err := re.Count("p", "a", lo, lo+200)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reopened count [%d,%d] = %d, want %d", lo, lo+200, got, want)
		}
	}
	after := re.TuneDecisions()
	if len(after) != 1 || after[0].Strategy != "ddr" || after[0].Flips != 0 || after[0].Forced {
		t.Fatalf("reopened decisions = %+v, want one ddr column with no flips", after)
	}
}

// TestRepeatsCrackNothing: every query cut is registered under every
// strategy and under the tuner, so a stream of 1 % counts answered once
// on a fresh 100k-row column is answered again by index lookups alone —
// not one crack and not one tuple touched on the second pass, whichever
// pattern the bounds follow and wherever the tuner flipped.
func TestRepeatsCrackNothing(t *testing.T) {
	const n = 100_000
	for _, posture := range append(strategy.Names(), "autotune") {
		for _, pattern := range workload.Patterns() {
			t.Run(posture+"/"+string(pattern), func(t *testing.T) {
				s := New()
				if posture == "autotune" {
					s.EnableAutotune(tuner.DefaultConfig())
				} else if err := s.SetCrackStrategy(posture, 42); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadTapestry("t", n, 1, 7); err != nil {
					t.Fatal(err)
				}
				gen, err := workload.New(pattern, workload.Config{Domain: n, Count: 1000, Selectivity: 0.01, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				qs := gen.Queries()
				pass := func() ColumnStats {
					for _, q := range qs {
						if _, err := s.Count("t", "c0", q.Lo, q.Hi-1); err != nil {
							t.Fatal(err)
						}
					}
					st, err := s.Stats("t", "c0")
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				first, second := pass(), pass()
				if first.Queries != len(qs) || second.Queries != 2*len(qs) || first.Cracks == 0 || second.Cracks != first.Cracks || second.TuplesTouched != first.TuplesTouched {
					t.Fatalf("first pass %d cracks, %d tuples touched; the repeat added %d cracks, %d tuples (strategy now %s)",
						first.Cracks, first.TuplesTouched, second.Cracks-first.Cracks, second.TuplesTouched-first.TuplesTouched, second.Strategy)
				}
			})
		}
	}
}
