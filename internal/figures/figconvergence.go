package figures

import (
	"fmt"
	"math/rand"

	"crackdb/internal/obs"
)

// Convergence figure (obs layer): the query-latency histograms split by
// execution path, sampled along a random range workload. Early queries
// pay write-hold cracking cost; as the column converges the crack path
// drains — fewer queries take it, and the ones that do touch smaller
// pieces — while the converged read path settles at index-lookup cost.
// This is the paper's self-organization story told by the metrics
// registry itself: the instrumentation the server exports is enough to
// watch a column converge, no offline analysis required.

// FigConvergenceConfig parameterizes the workload.
type FigConvergenceConfig struct {
	N       int   // column cardinality (default 1M)
	Queries int   // random range queries to run (default 4096)
	Grid    int   // distinct predicate bounds the workload draws from (default 512)
	Seed    int64 // workload RNG seed
}

func (c *FigConvergenceConfig) defaults() {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.Queries <= 0 {
		c.Queries = 4096
	}
	if c.Grid <= 0 {
		c.Grid = 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// FigConvergence runs a random range workload over one store with
// observability enabled and reports, at geometrically spaced
// checkpoints, the mean latency of each execution path inside the window
// since the previous checkpoint plus the fraction of queries that had to
// crack (read off each step's Stats delta). Predicate
// bounds are drawn from a finite grid — the workload a front-end with
// bucketed filters emits — so the cut set saturates and the crack path
// genuinely drains to zero. x is the query number; y is nanoseconds
// (the crack-fraction series is scaled to [0, 100]).
func FigConvergence(cfg FigConvergenceConfig) (Figure, error) {
	cfg.defaults()
	reg := obs.NewRegistry()
	_, a, err := openStore(posture{reg: reg}, cfg.N, cfg.Seed)
	if err != nil {
		return Figure{}, err
	}
	// The histograms EnableObservability registered, by execution path.
	const family, help = "crackdb_query_latency_ns", "Query latency by execution path, nanoseconds."
	readHold := reg.Histogram(family, help, obs.L("path", "converged"))
	writeHold := reg.Histogram(family, help, obs.L("path", "crack"))

	rng := rand.New(rand.NewSource(cfg.Seed))
	width := int64(cfg.N / cfg.Grid)
	queries := make([]query, cfg.Queries)
	for i := range queries {
		lo, hi := rng.Int63n(int64(cfg.Grid)), rng.Int63n(int64(cfg.Grid))
		if lo > hi {
			lo, hi = hi, lo
		}
		queries[i] = query{lo*width + 1, (hi + 1) * width}
	}

	read := Series{Label: "converged read-hold mean"}
	crack := Series{Label: "cracking write-hold mean"}
	frac := Series{Label: "queries that cracked (%)"}
	var prevRead, prevCrack obs.HistSnapshot
	cracked, window, next := 0, 0, 4
	err = replay(a, queries, func(i int, st step) {
		window++
		if st.Work.Cracks > 0 {
			cracked++
		}
		q := i + 1
		if q != next && q != len(queries) {
			return
		}
		r, c := readHold.Snapshot(), writeHold.Snapshot()
		if dc := c.Count - prevCrack.Count; dc > 0 {
			crack.Points = append(crack.Points, Point{X: float64(q), Y: float64(c.Sum-prevCrack.Sum) / float64(dc)})
		}
		if dr := r.Count - prevRead.Count; dr > 0 {
			read.Points = append(read.Points, Point{X: float64(q), Y: float64(r.Sum-prevRead.Sum) / float64(dr)})
		}
		frac.Points = append(frac.Points, Point{X: float64(q), Y: 100 * float64(cracked) / float64(window)})
		prevRead, prevCrack = r, c
		cracked, window = 0, 0
		next *= 2
	})
	if err != nil {
		return Figure{}, err
	}

	return Figure{
		ID:     "convergence",
		Title:  fmt.Sprintf("Crack-path latency draining toward convergence (N=%d, %d queries)", cfg.N, cfg.Queries),
		XLabel: "query number",
		YLabel: "mean latency ns (crack fraction in %)",
		Series: []Series{crack, read, frac},
	}, nil
}
