package figures

import (
	"fmt"

	"crackdb/internal/strategy"
	"crackdb/internal/workload"
)

// FigStochasticConfig parameterizes the stochastic-cracking robustness
// experiment. This figure is not in the CIDR paper — it reproduces the
// headline experiment of Halim et al., "Stochastic Database Cracking"
// (VLDB 2012), on the served store (SetCrackStrategy): standard
// cracking collapses under a sequential query walk (per-query cost stays
// O(N), cumulative cost quadratic), while the stochastic strategies stay
// near-constant per query on every pattern.
type FigStochasticConfig struct {
	N           int      // column cardinality (default 200k)
	K           int      // queries per cell (default 512)
	Seed        int64    // RNG seed for data, workloads and strategies
	Selectivity float64  // per-query range width as a domain fraction (default 0.01)
	Strategies  []string // strategy names (default: all registered)
	Workloads   []string // workload pattern names (default: all)
}

func (c *FigStochasticConfig) defaults() error {
	if c.N <= 0 {
		c.N = 200_000
	}
	if c.K <= 0 {
		c.K = 512
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
	if len(c.Strategies) == 0 {
		c.Strategies = strategy.Names()
	}
	if len(c.Workloads) == 0 {
		for _, p := range workload.Patterns() {
			c.Workloads = append(c.Workloads, string(p))
		}
	}
	for _, s := range c.Strategies {
		if _, err := strategy.New(s, 0); err != nil {
			return err
		}
	}
	for _, w := range c.Workloads {
		if _, err := workload.Parse(w); err != nil {
			return err
		}
	}
	return nil
}

// FigStochastic runs the strategy × workload matrix, a fresh store per
// cell over the same tapestry, and reports, per cell, cumulative query
// time against query number. The robustness gap reads directly off the shape: the
// standard/sequential (and standard/reverse) series climb linearly with
// a steep slope — every query pays a near-full partition pass — while
// the stochastic series flatten after a handful of queries on every
// pattern.
func FigStochastic(cfg FigStochasticConfig) (Figure, error) {
	if err := cfg.defaults(); err != nil {
		return Figure{}, err
	}
	var series []Series
	stride := max(cfg.K/64, 1)
	for _, sName := range cfg.Strategies {
		for _, wName := range cfg.Workloads {
			pattern, err := workload.Parse(wName)
			if err != nil {
				return Figure{}, err
			}
			gen, err := workload.New(pattern, workload.Config{
				Domain:      int64(cfg.N),
				Count:       cfg.K,
				Selectivity: cfg.Selectivity,
				Seed:        cfg.Seed + 1,
			})
			if err != nil {
				return Figure{}, err
			}
			_, a, err := openStore(posture{strategy: sName}, cfg.N, cfg.Seed)
			if err != nil {
				return Figure{}, err
			}
			s, err := cumulative(sName+"/"+string(pattern), a, fromWorkload(gen.Queries()), stride)
			if err != nil {
				return Figure{}, err
			}
			series = append(series, s)
		}
	}

	return Figure{
		ID:     "stochastic",
		Title:  fmt.Sprintf("Stochastic cracking robustness (N=%d, %d queries, sel=%.3f)", cfg.N, cfg.K, cfg.Selectivity),
		XLabel: "query #",
		YLabel: "cumulative seconds",
		Series: series,
	}, nil
}
