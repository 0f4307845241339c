package figures

import (
	"fmt"
	"time"

	"crackdb/internal/engine"
	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

// Extension figure: the hiking profile of §4 (fixed-size windows sliding
// with growing overlap — "the answer sets of two consecutive queries
// partly overlap"). The paper defines the profile but plots no hiking
// experiment; this generator completes the benchmark kit, comparing
// crack against nocrack the way Figure 10 does for homeruns.

// FigHikingConfig parameterizes the hiking experiment.
type FigHikingConfig struct {
	N     int
	K     int
	Sigma float64 // window size as a fraction of N
	Rho   mqs.Dist
	Seed  int64
}

func (c *FigHikingConfig) defaults() {
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

// FigHiking runs a hiking sequence under crack and nocrack, plotting
// cumulative response time per step.
func FigHiking(cfg FigHikingConfig) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "fig-hiking",
		Title:  fmt.Sprintf("k-step hiking (extension; N=%d, σ=%g)", cfg.N, cfg.Sigma),
		XLabel: "query-sequence length",
		YLabel: "cumulative response time (s)",
	}
	tbl := relation.Tapestry(cfg.N, 2, cfg.Seed)
	m := mqs.MQS{Alpha: 2, N: cfg.N, K: cfg.K, Sigma: cfg.Sigma, Rho: cfg.Rho}
	qs, err := mqs.Hiking(m, "c0", cfg.Seed+1)
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
