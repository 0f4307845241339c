package crackdb

import (
	"math/rand"
	"testing"
	"time"
)

// The planner's budget as standing assertions (ROADMAP: acceptance gates
// as plain go test). On a converged column a scalar COUNT through the
// planner is two index probes like Store.Count, so it may cost a small
// constant number of allocations — whatever the answer size, the table
// width or the number of pieces — and at most ten times Store.Count's
// wall time (bench's crackdb.planner_overhead_ratio < 10).

// convergedStore returns a width-column tapestry of n rows whose c0 has
// been cracked by a pool of ranges until batches stop cracking, and the
// pool.
func convergedStore(t testing.TB, n, width, poolSize int) (*Store, []Range) {
	t.Helper()
	s := New()
	if err := s.LoadTapestry("t", n, width, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pool := make([]Range, poolSize)
	for i := range pool {
		lo := 1 + rng.Int63n(int64(n))
		pool[i] = Range{Low: lo, High: lo + rng.Int63n(int64(n)/100)}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.CountBatch("t", "c0", pool); err != nil {
			t.Fatal(err)
		}
	}
	return s, pool
}

func countWhere(t testing.TB, s *Store, r Range) int {
	n, err := s.CountWhere("t", Cond{Col: "c0", Op: ">=", Val: r.Low}, Cond{Col: "c0", Op: "<=", Val: r.High})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCountWhereBudgetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxAllocs = 4 // the term, the advice map and its bucket
	big, pool := convergedStore(t, 200_000, 4, 6000)
	if st, _ := big.Stats("t", "c0"); st.Pieces < 10_000 {
		t.Fatalf("store has %d pieces, want >= 10000", st.Pieces)
	}
	cracks := func() int { st, _ := big.Stats("t", "c0"); return st.Cracks }
	before := cracks()
	narrow := pool[0]
	wide := Range{Low: pool[1].Low, High: pool[2].High}
	if wide.Low > wide.High {
		wide = Range{Low: pool[2].Low, High: pool[1].High}
	}
	small, smallPool := convergedStore(t, 2000, 1, 4)
	cases := []struct {
		name string
		s    *Store
		r    Range
	}{
		{"narrow answer, 4 columns, >10k pieces", big, narrow},
		{"wide answer, 4 columns, >10k pieces", big, wide},
		{"1 column, a handful of pieces", small, smallPool[0]},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() { countWhere(t, c.s, c.r) })
		if got > maxAllocs {
			t.Errorf("%s: CountWhere allocates %.0f times per call, budget %d", c.name, got, maxAllocs)
		}
	}
	// No WHERE at all: the live row count, not a scan of the base.
	if got := testing.AllocsPerRun(20, func() {
		if n, err := big.CountWhere("t"); err != nil || n != 200_000 {
			t.Fatalf("COUNT(*) = %d, %v", n, err)
		}
	}); got > maxAllocs {
		t.Errorf("CountWhere with no condition allocates %.0f times per call, budget %d", got, maxAllocs)
	}
	if after := cracks(); after != before {
		t.Fatalf("column cracked %d times during the measurement: it was not converged", after-before)
	}
}

func TestCountWhereBudgetTime(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	s, pool := convergedStore(t, 200_000, 4, 6000)
	// Best of five passes over the pool for each side: the gate is on the
	// code's cost, not on what else the machine was doing.
	best := func(f func(r Range)) time.Duration {
		min := time.Duration(1<<63 - 1)
		for pass := 0; pass < 5; pass++ {
			t0 := time.Now()
			for _, r := range pool {
				f(r)
			}
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}
	scalar := best(func(r Range) {
		if _, err := s.Count("t", "c0", r.Low, r.High); err != nil {
			t.Fatal(err)
		}
	})
	planned := best(func(r Range) { countWhere(t, s, r) })
	ratio := float64(planned) / float64(scalar)
	t.Logf("Count %v, CountWhere %v per %d statements: ratio %.2f", scalar, planned, len(pool), ratio)
	if ratio > 10 {
		t.Fatalf("CountWhere costs %.1f x Count on a converged column, budget 10 x", ratio)
	}
}
