package figures

import (
	"fmt"

	"crackdb"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// FigStochasticConfig parameterizes the stochastic-cracking robustness
// experiment. This figure is not in the CIDR paper — it reproduces the
// headline experiment of Halim et al., "Stochastic Database Cracking"
// (VLDB 2012), on the served store (SetCrackStrategy): standard
// cracking collapses under a sequential query walk (every query touches
// nearly the whole uncracked remainder, so cumulative work is
// quadratic), while the stochastic strategy stays near-constant per
// query on every pattern.
type FigStochasticConfig struct {
	N           int      // column cardinality (default 200k)
	K           int      // queries per cell and pass (default 512)
	Seed        int64    // RNG seed for data, workloads and strategies
	Selectivity float64  // per-query range width as a domain fraction (default 0.01)
	Strategies  []string // rows: strategy names or "autotune" (default: every strategy, then autotune)
	Workloads   []string // workload pattern names (default: all)
}

// autotuneRow names the row whose store runs EnableAutotune with the
// tuner's default configuration, the one cracksrv -autotune uses.
const autotuneRow = "autotune"

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
		c.Strategies = append(strategy.Names(), autotuneRow)
	}
	if len(c.Workloads) == 0 {
		for _, p := range workload.Patterns() {
			c.Workloads = append(c.Workloads, string(p))
		}
	}
	for _, s := range c.Strategies {
		if s == autotuneRow {
			continue
		}
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

// FigStochastic runs the row × workload matrix, a fresh store per cell
// over the same tapestry. Each cell answers its K queries (the cold
// pass), then the same K queries again (the repeat pass), and plots
// cumulative tuples touched (the Stats delta) against query number: the
// series "row/pattern" over the cold pass, and "row/pattern repeat",
// counted from zero, over queries K+1..2K. The robustness gap reads
// directly off the cold series: standard/sequential and standard/reverse
// climb to about K·N/2 tuples, while the stochastic series stay near
// linear in K on every pattern. Every query cut is registered, so every
// repeat series stays at 0.
func FigStochastic(cfg FigStochasticConfig) (Figure, error) {
	fig, _, err := figStochastic(cfg)
	return fig, err
}

// figStochastic also returns what each cell's passes added to its
// column's counters (Pieces and Strategy stay unset), by its cold
// series' label: the cold pass, then the repeat pass.
func figStochastic(cfg FigStochasticConfig) (Figure, map[string][2]crackdb.ColumnStats, error) {
	if err := cfg.defaults(); err != nil {
		return Figure{}, nil, err
	}
	var series []Series
	work := make(map[string][2]crackdb.ColumnStats)
	stride := max(cfg.K/64, 1)
	for _, row := range cfg.Strategies {
		p := posture{strategy: row}
		if row == autotuneRow {
			tc := tuner.DefaultConfig()
			p = posture{autotune: &tc}
		}
		for _, wName := range cfg.Workloads {
			pattern, err := workload.Parse(wName)
			if err != nil {
				return Figure{}, nil, err
			}
			gen, err := workload.New(pattern, workload.Config{
				Domain:      int64(cfg.N),
				Count:       cfg.K,
				Selectivity: cfg.Selectivity,
				Seed:        cfg.Seed + 1,
			})
			if err != nil {
				return Figure{}, nil, err
			}
			_, a, err := openStore(p, cfg.N, cfg.Seed)
			if err != nil {
				return Figure{}, nil, err
			}
			qs := fromWorkload(gen.Queries())
			label := row + "/" + string(pattern)
			passes := [2]Series{{Label: label}, {Label: label + " repeat"}}
			var w [2]crackdb.ColumnStats
			err = replay(a, append(qs, qs...), func(i int, st step) {
				pass, j := i/len(qs), i%len(qs)
				w[pass].Stats = w[pass].Stats.Add(st.Work.Stats)
				if (j+1)%stride == 0 || j == len(qs)-1 {
					passes[pass].Points = append(passes[pass].Points, Point{X: float64(i + 1), Y: float64(w[pass].TuplesTouched)})
				}
			})
			if err != nil {
				return Figure{}, nil, err
			}
			series = append(series, passes[:]...)
			work[label] = w
		}
	}

	return Figure{
		ID: "stochastic",
		Title: fmt.Sprintf("Stochastic cracking robustness (N=%d, %d queries then the same %d again, sel=%.3f)",
			cfg.N, cfg.K, cfg.K, cfg.Selectivity),
		XLabel: "query #",
		YLabel: "cumulative tuples touched",
		Series: series,
	}, work, nil
}
