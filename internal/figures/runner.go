package figures

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"crackdb"
	"crackdb/internal/mqs"
	"crackdb/internal/obs"
	"crackdb/internal/relation"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// The runner. Every figure about cracking behaviour measures a
// *crackdb.Store — the store cracksrv serves — through the one replay
// loop below, so a regression (or a gain) on the served path moves the
// figure. No generator builds a cracker column of its own, and
// TestFiguresStayOffCore keeps internal/core out of this package's
// imports.
//
// The data is always a DBtapestry column, a permutation of 1..N: the
// answer to an inclusive range is its width, so replay checks every
// count it times and the harness is one more oracle over the store
// rather than a way around it.

// figTable and figCol name the single-column tapestry openStore loads.
const (
	figTable = "t"
	figCol   = "c0"
)

// query is one inclusive range count over the tapestry domain 1..N.
type query struct{ Lo, Hi int64 }

// fromMQS adopts a §4 sequence, which is inclusive over 1..N already.
func fromMQS(qs []mqs.Query) []query {
	out := make([]query, len(qs))
	for i, q := range qs {
		out[i] = query{q.Low, q.High}
	}
	return out
}

// fromWorkload shifts a pattern stream's half-open ranges over [0, N)
// onto the tapestry's 1..N.
func fromWorkload(qs []workload.Query) []query {
	out := make([]query, len(qs))
	for i, q := range qs {
		out[i] = query{q.Lo + 1, q.Hi}
	}
	return out
}

// posture is how a figure's store is configured before the table loads.
// The zero value is a default store: standard cracking, no tuner.
type posture struct {
	strategy string        // SetCrackStrategy name; "" keeps standard
	autotune *tuner.Config // EnableAutotune
	reg      *obs.Registry // EnableObservability, every lookup timed
}

// openStore builds a store in the posture, loads an n-row single-column
// tapestry as figTable and returns the store with the answerer over that
// column. seed feeds both the strategy's RNG and the permutation.
func openStore(p posture, n int, seed int64) (*crackdb.Store, answerer, error) {
	s := crackdb.New()
	if p.strategy != "" {
		if err := s.SetCrackStrategy(p.strategy, seed); err != nil {
			return nil, answerer{}, err
		}
	}
	if p.autotune != nil {
		s.EnableAutotune(*p.autotune)
	}
	if p.reg != nil {
		s.EnableObservability(p.reg, nil, 0, 1)
	}
	if err := s.LoadTapestry(figTable, n, 1, seed); err != nil {
		return nil, answerer{}, err
	}
	a, err := served(s, figTable, figCol)
	return s, a, err
}

// answerer is one series of a cracking figure: the served store in some
// posture, or a baseline over the raw column.
type answerer struct {
	n     int // cardinality of the tapestry column behind count
	count func(lo, hi int64) (int, error)
	stats func() (crackdb.ColumnStats, error) // nil: a baseline keeps no counters
}

// served answers through Store.Count on one tapestry column of s.
func served(s *crackdb.Store, table, col string) (answerer, error) {
	n, err := s.NumRows(table)
	if err != nil {
		return answerer{}, err
	}
	return answerer{
		n:     n,
		count: func(lo, hi int64) (int, error) { return s.Count(table, col, lo, hi) },
		stats: func() (crackdb.ColumnStats, error) { return s.Stats(table, col) },
	}, nil
}

// tapestryColumn is the column openStore loads for the same (n, seed),
// for the baselines to scan.
func tapestryColumn(n int, seed int64) []int64 {
	return relation.Tapestry(n, 1, seed).MustColumn(figCol).Ints()
}

// nocrack answers every query with a full scan: Figure 10 and 11's
// "merely results in multiple scans over the database".
func nocrack(vals []int64) answerer {
	return answerer{n: len(vals), count: func(lo, hi int64) (int, error) {
		c := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				c++
			}
		}
		return c, nil
	}}
}

// sortFirst pays for a sorted copy of the column on its first query and
// binary-searches it from then on — the index-upfront rival of §2.2.
func sortFirst(vals []int64) answerer {
	var sorted []int64
	return answerer{n: len(vals), count: func(lo, hi int64) (int, error) {
		if sorted == nil {
			sorted = slices.Clone(vals)
			slices.Sort(sorted)
		}
		from := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		to := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
		return to - from, nil
	}}
}

// step is what one replayed query hands its figure.
type step struct {
	Elapsed time.Duration
	Count   int
	// Work is what the step added to the column's counters; Pieces and
	// Strategy are the column's state after it. Zero for the baselines.
	Work crackdb.ColumnStats
}

// replay answers qs in order through a, timing each count, and hands
// every step to visit. It fails on the first answer that is not the
// range's width inside 1..n, so every series of a figure provably
// returns the same counts.
func replay(a answerer, qs []query, visit func(i int, st step)) error {
	var prev crackdb.ColumnStats
	for i, q := range qs {
		t0 := time.Now()
		got, err := a.count(q.Lo, q.Hi)
		st := step{Elapsed: time.Since(t0), Count: got}
		if err != nil {
			return fmt.Errorf("figures: step %d: %w", i, err)
		}
		if want := max(0, min(q.Hi, int64(a.n))-max(q.Lo, 1)+1); int64(got) != want {
			return fmt.Errorf("figures: step %d: [%d, %d] answered %d of a %d-row tapestry, want %d",
				i, q.Lo, q.Hi, got, a.n, want)
		}
		if a.stats != nil {
			cur, err := a.stats()
			if err != nil {
				return fmt.Errorf("figures: step %d: %w", i, err)
			}
			st.Work, prev = workSince(cur, prev), cur
		}
		visit(i, st)
	}
	return nil
}

// workSince subtracts prev's counters from cur's, keeping cur's Pieces
// and Strategy.
func workSince(cur, prev crackdb.ColumnStats) crackdb.ColumnStats {
	cur.Stats = cur.Stats.Sub(prev.Stats)
	return cur
}

// cumulative replays qs through a and plots the running total of
// response time against query number: a point every stride steps and at
// the last.
func cumulative(label string, a answerer, qs []query, stride int) (Series, error) {
	s := Series{Label: label}
	var cum time.Duration
	err := replay(a, qs, func(i int, st step) {
		cum += st.Elapsed
		if (i+1)%stride == 0 || i == len(qs)-1 {
			s.Points = append(s.Points, Point{X: float64(i + 1), Y: seconds(cum)})
		}
	})
	return s, err
}
