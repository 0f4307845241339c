package figures

import (
	"fmt"
	"time"

	"crackdb/internal/algebra"
	"crackdb/internal/relation"
)

// Figure 9: the k-way linear join experiment (§5.1). The table holds
// random integer pairs; the reachability relation is "unrolled" by
// self-join chains of up to 128 joins. Row engines go super-linear or
// break; the binary-table engine stays near-linear.

// Fig9Config parameterizes the join-chain sweep.
type Fig9Config struct {
	N      int           // table cardinality (scaled down from 1M; see DESIGN.md)
	Ks     []int         // chain lengths
	Budget time.Duration // per-configuration wall budget; exceeding = DNF
	Seed   int64
}

func (c *Fig9Config) defaults() {
	if c.N <= 0 {
		c.N = 4096
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 4, 8, 16, 32, 64, 128}
	}
	if c.Budget <= 0 {
		c.Budget = 5 * time.Second
	}
}

// Fig9 runs the chain-join sweep for every engine personality. Series
// stop early (DNF) when a configuration exceeds its budget — mirroring
// the systems the paper could not push to 128 joins.
func Fig9(cfg Fig9Config) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "fig9",
		Title:  fmt.Sprintf("k-way linear join (N=%d)", cfg.N),
		XLabel: "join-sequence length",
		YLabel: "response time (s)",
	}

	tap := relation.Tapestry(cfg.N, 2, cfg.Seed)
	tbl, err := relation.FromColumns("R",
		relation.Column{Name: "k", Data: tap.MustColumn("c0")},
		relation.Column{Name: "a", Data: tap.MustColumn("c1")},
	)
	if err != nil {
		return fig, err
	}

	for _, prof := range algebra.Profiles() {
		series := Series{Label: prof.Name}
		spent := time.Duration(0)
		for _, k := range cfg.Ks {
			tables := make([]*relation.Table, k)
			for i := range tables {
				tables[i] = tbl
			}
			start := time.Now()
			var rows int
			if prof.Vectorized {
				rows, err = algebra.VecChainJoin(tables, "a", "k")
				if err != nil {
					return fig, err
				}
			} else {
				it, _, err := algebra.PlanChain(algebra.ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, prof)
				if err != nil {
					return fig, err
				}
				rows, err = algebra.Count(it)
				if err != nil {
					return fig, err
				}
			}
			elapsed := time.Since(start)
			if rows != cfg.N && k > 0 {
				return fig, fmt.Errorf("figures: fig9 %s k=%d produced %d rows, want %d", prof.Name, k, rows, cfg.N)
			}
			series.Points = append(series.Points, Point{X: float64(k), Y: seconds(elapsed)})
			spent += elapsed
			if spent > cfg.Budget {
				series.DNF = true
				break
			}
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}
