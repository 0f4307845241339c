package figures

import (
	"context"
	"errors"
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
	Budget time.Duration // wall budget of one personality's sweep; exceeding = DNF
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

// Fig9 runs the chain-join sweep for every engine personality. A series
// stops (DNF) where its sweep runs out of budget — mirroring the systems
// the paper could not push to 128 joins. The budget is a deadline the
// chain run itself checks, so the configuration that overruns is cut
// short rather than waited for, and plots no point.
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
		series, err := fig9Sweep(cfg, prof, tbl)
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

func fig9Sweep(cfg Fig9Config, prof algebra.Profile, tbl *relation.Table) (Series, error) {
	series := Series{Label: prof.Name}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
	defer cancel()
	for _, k := range cfg.Ks {
		tables := make([]*relation.Table, k)
		for i := range tables {
			tables[i] = tbl
		}
		start := time.Now()
		var rows int
		var err error
		if prof.Vectorized {
			rows, err = algebra.VecChainJoin(ctx, tables, "a", "k")
		} else {
			var it algebra.Iterator
			it, _, err = algebra.PlanChain(algebra.ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, prof)
			if err == nil {
				rows, err = algebra.Count(ctx, it)
			}
		}
		elapsed := time.Since(start)
		if errors.Is(err, context.DeadlineExceeded) {
			series.DNF = true
			break
		}
		if err != nil {
			return series, err
		}
		if rows != cfg.N && k > 0 {
			return series, fmt.Errorf("figures: fig9 %s k=%d produced %d rows, want %d", prof.Name, k, rows, cfg.N)
		}
		series.Points = append(series.Points, Point{X: float64(k), Y: seconds(elapsed)})
	}
	return series, nil
}
