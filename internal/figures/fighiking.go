package figures

import (
	"fmt"

	"crackdb/internal/mqs"
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
	m := mqs.MQS{Alpha: 1, N: cfg.N, K: cfg.K, Sigma: cfg.Sigma, Rho: cfg.Rho}
	qs, err := mqs.Hiking(m, figCol, cfg.Seed+1)
	if err != nil {
		return fig, err
	}
	return fig, crackVersus(&fig, cfg.N, cfg.Seed, fromMQS(qs), "", "crack", "nocrack")
}
