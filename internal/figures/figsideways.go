package figures

import (
	"fmt"
	"time"

	"crackdb"
	"crackdb/internal/workload"
)

// sidewaysAttrs is how many payload attributes each query of the
// sideways-cracking experiment projects.
const sidewaysAttrs = 2

// FigSidewaysConfig parameterizes the sideways-cracking experiment.
type FigSidewaysConfig struct {
	N           int     // table cardinality (default 200 000)
	K           int     // queries per trajectory (default 256)
	Seed        int64   // RNG seed
	Selectivity float64 // per-query range width fraction (default 0.02)
	Strategy    string  // crack strategy ("" = standard)
}

func (c *FigSidewaysConfig) defaults() {
	if c.N <= 0 {
		c.N = 200_000
	}
	if c.K <= 0 {
		c.K = 256
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.02
	}
}

// FigSideways measures what partial sideways cracking buys on
// multi-attribute queries: two per-query latency trajectories over the
// same random workload, each query a range selection on the key column
// followed by a projection of sidewaysAttrs payload attributes.
//
//   - "base fetch": sideways disabled — every projected tuple is
//     reconstructed through its OID against the base table, one random
//     access per tuple per attribute (the paper's reconstruction cost,
//     ROADMAP's named bottleneck for wide results);
//   - "sideways maps": the projection reads the co-cracked aligned
//     windows sequentially; the first query pays the map
//     materialization, later queries converge to window copies.
func FigSideways(cfg FigSidewaysConfig) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID: "sideways",
		Title: fmt.Sprintf("tuple reconstruction: sideways maps vs base-table fetch (N=%d, %d attrs)",
			cfg.N, sidewaysAttrs),
		XLabel: "query number",
		YLabel: "response time (s)",
	}
	for _, mode := range []struct {
		label  string
		budget int
	}{
		{"base fetch (oid per tuple)", 0},
		{"sideways maps (aligned windows)", -1},
	} {
		pts, err := runSidewaysStream(cfg, mode.budget)
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, Series{Label: mode.label, Points: pts})
	}
	sortSeries(fig.Series)
	return fig, nil
}

func runSidewaysStream(cfg FigSidewaysConfig, budget int) ([]Point, error) {
	s := crackdb.New()
	s.SetSidewaysBudget(budget)
	if cfg.Strategy != "" && cfg.Strategy != "standard" {
		if err := s.SetCrackStrategy(cfg.Strategy, cfg.Seed); err != nil {
			return nil, err
		}
	}
	if err := s.LoadTapestry("w", cfg.N, sidewaysAttrs+1, cfg.Seed); err != nil {
		return nil, err
	}
	attrs := make([]string, sidewaysAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i+1)
	}
	gen, err := workload.New(workload.Random, workload.Config{
		Domain:      int64(cfg.N),
		Count:       cfg.K,
		Selectivity: cfg.Selectivity,
		Seed:        cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, cfg.K)
	for i := 1; ; i++ {
		q, ok := gen.Next()
		if !ok {
			return points, nil
		}
		t0 := time.Now()
		// Tapestry values live in 1..N; the generator emits [lo, hi) over
		// [0, N).
		res, err := s.Select("w", "c0", q.Lo+1, q.Hi)
		if err != nil {
			return nil, err
		}
		if _, err := res.Rows(attrs...); err != nil {
			return nil, err
		}
		points = append(points, Point{X: float64(i), Y: seconds(time.Since(t0))})
	}
}
