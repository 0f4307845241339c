package figures

import (
	"fmt"

	"crackdb/internal/mqs"
)

// Figures 10 and 11: the MonetDB cracker-module experiments (§5.2),
// reproduced on the served store. Both plot cumulative response time as
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
	for _, sigma := range cfg.Selectivities {
		m := mqs.MQS{Alpha: 1, N: cfg.N, K: cfg.K, Sigma: sigma, Rho: cfg.Rho}
		qs, err := mqs.Homerun(m, figCol, cfg.Seed+int64(sigma*1000))
		if err != nil {
			return fig, err
		}
		suffix := fmt.Sprintf(" %2.0f%%", sigma*100)
		if err := crackVersus(&fig, cfg.N, cfg.Seed, fromMQS(qs), suffix, "crack", "nocrack"); err != nil {
			return fig, err
		}
	}
	sortSeries(fig.Series)
	return fig, nil
}

// crackVersus appends one cumulative series per named line to fig, all
// over the same tapestry and the same queries: "crack" is a default
// store, "nocrack" and "sort" the baselines beside it.
func crackVersus(fig *Figure, n int, seed int64, qs []query, suffix string, lines ...string) error {
	vals := tapestryColumn(n, seed)
	for _, line := range lines {
		var a answerer
		switch line {
		case "nocrack":
			a = nocrack(vals)
		case "sort":
			a = sortFirst(vals)
		default:
			var err error
			if _, a, err = openStore(posture{}, n, seed); err != nil {
				return err
			}
		}
		series, err := cumulative(line+suffix, a, qs, 1)
		if err != nil {
			return err
		}
		fig.Series = append(fig.Series, series)
	}
	return nil
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
	m := mqs.MQS{Alpha: 1, N: cfg.N, K: cfg.K, Sigma: cfg.Sigma, Rho: cfg.Rho}
	qs, err := mqs.Strolling(m, figCol, cfg.Seed+1)
	if err != nil {
		return fig, err
	}
	return fig, crackVersus(&fig, cfg.N, cfg.Seed, fromMQS(qs), "", "nocrack", "sort", "crack")
}
