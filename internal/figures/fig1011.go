package figures

import (
	"fmt"
	"time"

	"crackdb/internal/engine"
	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

// Figures 10 and 11: the MonetDB cracker-module experiments (§5.2),
// reproduced on the cracker core. Both plot cumulative response time as
// a function of the number of queries executed.

// Fig10Config parameterizes the homerun experiment.
type Fig10Config struct {
	N             int       // table cardinality (paper: tapestry)
	K             int       // sequence length (paper: up to 128)
	Selectivities []float64 // target sizes (paper: 5%, 45%, 75%)
	Rho           mqs.Dist
	Seed          int64
}

func (c *Fig10Config) defaults() {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.K <= 0 {
		c.K = 128
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.05, 0.45, 0.75}
	}
}

// Fig10 runs linear homerun sequences with and without cracking: series
// "crack σ%" and "nocrack σ%", y = cumulative response time after each
// step.
func Fig10(cfg Fig10Config) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "fig10",
		Title:  fmt.Sprintf("k-way homeruns (N=%d)", cfg.N),
		XLabel: "query-sequence length",
		YLabel: "cumulative response time (s)",
	}
	tbl := relation.Tapestry(cfg.N, 2, cfg.Seed)
	for _, sigma := range cfg.Selectivities {
		m := mqs.MQS{Alpha: 2, N: cfg.N, K: cfg.K, Sigma: sigma, Rho: cfg.Rho}
		qs, err := mqs.Homerun(m, "c0", cfg.Seed+int64(sigma*1000))
		if err != nil {
			return fig, err
		}
		for _, strat := range []engine.Strategy{engine.Crack, engine.NoCrack} {
			sess, err := engine.NewSession(tbl, "c0", strat)
			if err != nil {
				return fig, err
			}
			stats, err := sess.RunSequence(qs, engine.ModeCount, nil)
			if err != nil {
				return fig, err
			}
			series := Series{Label: fmt.Sprintf("%s %2.0f%%", strat, sigma*100)}
			cum := time.Duration(0)
			for i, st := range stats {
				cum += st.Elapsed
				series.Points = append(series.Points, Point{X: float64(i + 1), Y: seconds(cum)})
			}
			fig.Series = append(fig.Series, series)
		}
	}
	sortSeries(fig.Series)
	return fig, nil
}

// Fig11Config parameterizes the strolling-convergence experiment.
type Fig11Config struct {
	N     int
	K     int
	Sigma float64 // convergence target (paper: 5%)
	Rho   mqs.Dist
	Seed  int64
}

func (c *Fig11Config) defaults() {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.K <= 0 {
		c.K = 128
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.05
	}
}

// Fig11 runs a strolling sequence converging to σ under the three
// strategies: nocrack, sort (index upfront), crack.
func Fig11(cfg Fig11Config) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "fig11",
		Title:  fmt.Sprintf("k-step strolling converge (N=%d, σ=%g)", cfg.N, cfg.Sigma),
		XLabel: "query-sequence length",
		YLabel: "cumulative response time (s)",
	}
	tbl := relation.Tapestry(cfg.N, 2, cfg.Seed)
	m := mqs.MQS{Alpha: 2, N: cfg.N, K: cfg.K, Sigma: cfg.Sigma, Rho: cfg.Rho}
	qs, err := mqs.Strolling(m, "c0", cfg.Seed+1)
	if err != nil {
		return fig, err
	}
	for _, strat := range []engine.Strategy{engine.NoCrack, engine.SortFirst, engine.Crack} {
		sess, err := engine.NewSession(tbl, "c0", strat)
		if err != nil {
			return fig, err
		}
		stats, err := sess.RunSequence(qs, engine.ModeCount, nil)
		if err != nil {
			return fig, err
		}
		series := Series{Label: strat.String()}
		cum := time.Duration(0)
		for i, st := range stats {
			cum += st.Elapsed
			series.Points = append(series.Points, Point{X: float64(i + 1), Y: seconds(cum)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}
