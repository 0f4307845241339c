package figures

import (
	"context"
	"fmt"
	"io"
	"time"

	"crackdb/internal/algebra"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// Figure 1: response time of the basic operations against a 1M-row
// R[int,int] table as selectivity sweeps 0..100% — (a) materialization
// into a temporary table, (b) sending the output to the front-end,
// (c) just counting the qualifying tuples — for each engine personality.

// Fig1Mode selects the delivery sub-figure.
type Fig1Mode uint8

// The three sub-figures.
const (
	Fig1Materialize Fig1Mode = iota // Figure 1(a)
	Fig1Print                       // Figure 1(b)
	Fig1Count                       // Figure 1(c)
)

func (m Fig1Mode) String() string {
	switch m {
	case Fig1Materialize:
		return "materialize"
	case Fig1Print:
		return "print"
	default:
		return "count"
	}
}

// Fig1Config parameterizes the sweep.
type Fig1Config struct {
	N             int       // table cardinality (paper: 1M)
	Selectivities []float64 // sweep points in (0, 1]
	Seed          int64
}

// DefaultFig1Selectivities is the paper's 0..100% sweep at 10% steps,
// with an extra 1% point for the low end. Each point is i/10, not a
// running sum of 0.1: the last must be exactly 1 to select all N tuples.
func DefaultFig1Selectivities() []float64 {
	out := []float64{0.01}
	for i := 1; i <= 10; i++ {
		out = append(out, float64(i)/10)
	}
	return out
}

// Fig1 runs one sub-figure of Figure 1. Each series is one engine
// personality; x is selectivity in %, y is response time in seconds.
func Fig1(mode Fig1Mode, cfg Fig1Config) (Figure, error) {
	if cfg.N <= 0 {
		cfg.N = 1_000_000
	}
	if len(cfg.Selectivities) == 0 {
		cfg.Selectivities = DefaultFig1Selectivities()
	}
	tbl := buildRTable(cfg.N, cfg.Seed)

	fig := Figure{
		ID:     "fig1" + string('a'+byte(mode)),
		Title:  fmt.Sprintf("Selectivity %s test %d rows", mode, cfg.N),
		XLabel: "selectivity (%)",
		YLabel: "response time (s)",
	}
	fragSeq := 0
	for _, prof := range algebra.Profiles() {
		series := Series{Label: prof.Name}
		for _, sel := range cfg.Selectivities {
			lo := int64(1)
			hi := int64(sel * float64(cfg.N))
			if hi < lo {
				hi = lo
			}
			start := time.Now()
			got, err := runFig1Query(tbl, prof, mode, lo, hi, io.Discard, &fragSeq)
			elapsed := time.Since(start)
			if err != nil {
				return fig, err
			}
			// a is a permutation of 1..N: the answer is the range width.
			if int64(got) != hi {
				return fig, fmt.Errorf("figures: %s %s σ=%g delivered %d tuples, want %d", fig.ID, prof.Name, sel, got, hi)
			}
			series.Points = append(series.Points, Point{X: sel * 100, Y: seconds(elapsed)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// runFig1Query executes SELECT * FROM R WHERE lo <= a <= hi delivered in
// the requested mode under the given personality and returns the number
// of tuples delivered.
func runFig1Query(tbl *relation.Table, prof algebra.Profile, mode Fig1Mode, lo, hi int64, out io.Writer, fragSeq *int) (int, error) {
	*fragSeq++
	name := fmt.Sprintf("frag_%s_%d", prof.Name, *fragSeq)

	if prof.Vectorized {
		col := tbl.MustColumn("a")
		if mode == Fig1Count {
			return algebra.VecCount(col, lo, hi, true, true), nil
		}
		pos := algebra.VecSelect(col, lo, hi, true, true)
		if mode == Fig1Print {
			return algebra.VecPrint(tbl, pos, out)
		}
		frag, err := algebra.VecMaterialize(tbl, pos, name)
		if err != nil {
			return 0, err
		}
		return frag.Len(), nil
	}

	mk := func() (algebra.Iterator, error) {
		return algebra.NewFilter(algebra.NewTableScan(tbl), expr.Term{
			{Col: "a", Op: expr.Ge, Val: lo},
			{Col: "a", Op: expr.Le, Val: hi},
		})
	}
	it, err := mk()
	if err != nil {
		return 0, err
	}
	switch mode {
	case Fig1Count:
		return algebra.Count(context.Background(), it)
	case Fig1Print:
		return algebra.Print(it, out)
	}
	frag, err := algebra.Materialize(it, name, prof)
	if err != nil {
		return 0, err
	}
	return frag.Len(), nil
}

// buildRTable creates the R[int,int] experiment table: k is the dense
// key, a a permutation of 1..N (a tapestry column), so selectivity is
// exactly range width / N.
func buildRTable(n int, seed int64) *relation.Table {
	tap := relation.Tapestry(n, 2, seed)
	tbl, err := relation.FromColumns("R",
		relation.Column{Name: "k", Data: tap.MustColumn("c0")},
		relation.Column{Name: "a", Data: tap.MustColumn("c1")},
	)
	if err != nil {
		panic(err) // construction from equal-length columns cannot fail
	}
	return tbl
}
