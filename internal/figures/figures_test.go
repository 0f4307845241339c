package figures

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"crackdb/internal/algebra"
	"crackdb/internal/mqs"
)

// The figure tests run at reduced scale (the root benchmarks run closer
// to paper scale) and assert the qualitative shapes the paper reports —
// who wins, roughly by what factor, where crossovers fall.

func lastY(s Series) float64 { return s.Points[len(s.Points)-1].Y }

// eventually retries a wall-clock-sensitive shape check: the test host
// runs packages in parallel on few cores, so any single timing sample can
// be inflated by scheduler contention. A shape must hold on one of three
// independent regenerations.
func eventually(t *testing.T, attempts int, check func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = check(); err == nil {
			return
		}
	}
	t.Fatal(err)
}

func findSeries(t *testing.T, f Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", f.ID, label, labels(f))
	return Series{}
}

func labels(f Figure) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

func TestFig1Shapes(t *testing.T) {
	// The default sweep ends at exactly 100 %, and the count-mode answer
	// there is every tuple (a running sum of 0.1 ends at 99.99…9 % and
	// selects N − 1).
	sels := DefaultFig1Selectivities()
	last := sels[len(sels)-1]
	if last*100 != 100 {
		t.Fatalf("default sweep ends at x = %v, want exactly 100", last*100)
	}
	const n = 1000
	seq := 0
	for _, prof := range algebra.Profiles() {
		got, err := runFig1Query(buildRTable(n, 3), prof, Fig1Count, 1, int64(last*n), io.Discard, &seq)
		if err != nil || got != n {
			t.Fatalf("%s counts %d tuples at 100 %% (err %v), want %d", prof.Name, got, err, n)
		}
	}
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	cfg := Fig1Config{N: 20000, Selectivities: []float64{0.01, 0.25, 0.5, 1.0}}
	eventually(t, 3, func() error {
		figs := map[Fig1Mode]Figure{}
		for _, mode := range []Fig1Mode{Fig1Materialize, Fig1Print, Fig1Count} {
			f, err := Fig1(mode, cfg)
			if err != nil {
				return err
			}
			figs[mode] = f
			if len(f.Series) != 3 {
				return fmt.Errorf("%s: %d series", f.ID, len(f.Series))
			}
			for _, s := range f.Series {
				if len(s.Points) != 4 {
					return fmt.Errorf("%s %s: %d points", f.ID, s.Label, len(s.Points))
				}
				// Response time grows with selectivity for every engine
				// (allowing generous noise at this tiny scale).
				if s.Points[0].Y > 4*s.Points[len(s.Points)-1].Y+1e-3 {
					return fmt.Errorf("%s %s: time shrinks with selectivity: %+v", f.ID, s.Label, s.Points)
				}
			}
		}
		// Materialize costs at least as much as count at full selectivity
		// for the transactional row store.
		mat := findSeries(t, figs[Fig1Materialize], "rowstore-txn")
		cnt := findSeries(t, figs[Fig1Count], "rowstore-txn")
		if lastY(mat) < lastY(cnt) {
			return fmt.Errorf("materialize (%g) cheaper than count (%g) on rowstore-txn", lastY(mat), lastY(cnt))
		}
		// The vectorized engine counts faster than the row store.
		colCnt := findSeries(t, figs[Fig1Count], "colstore")
		if lastY(colCnt) > lastY(cnt) {
			return fmt.Errorf("colstore count (%g) slower than rowstore count (%g)", lastY(colCnt), lastY(cnt))
		}
		return nil
	})
}

func TestFig2Shape(t *testing.T) {
	f := Fig2(Fig2Config{N: 100000, K: 20, Seed: 5})
	if len(f.Series) != len(DefaultSimSelectivities()) {
		t.Fatalf("fig2 series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		first, last := s.Points[0].Y, lastY(s)
		if first < 0.15 || first > 1.0 {
			t.Fatalf("fig2 %s: first overhead %g outside (1-σ) ballpark", s.Label, first)
		}
		if last > first/2 {
			t.Fatalf("fig2 %s: overhead did not decay (%g → %g)", s.Label, first, last)
		}
	}
	// Smaller σ starts higher: 1% above 80%.
	s1 := findSeries(t, f, "1 %")
	s80 := findSeries(t, f, "80 %")
	if s1.Points[0].Y <= s80.Points[0].Y {
		t.Fatalf("fig2: 1%% first overhead %g not above 80%% %g", s1.Points[0].Y, s80.Points[0].Y)
	}
}

func TestFig3Shape(t *testing.T) {
	f := Fig3(Fig2Config{N: 100000, K: 20, Seed: 5})
	for _, s := range f.Series {
		if s.Points[0].Y < 1.5 {
			t.Fatalf("fig3 %s: first relative cost %g, want ≈2", s.Label, s.Points[0].Y)
		}
		if lastY(s) >= 1.1 {
			t.Fatalf("fig3 %s: no break-even after 20 steps (%g)", s.Label, lastY(s))
		}
	}
}

func TestFig8Shape(t *testing.T) {
	f := Fig8(Fig8Config{})
	if len(f.Series) != 4 {
		t.Fatalf("fig8 series = %d", len(f.Series))
	}
	lin := findSeries(t, f, "linear contraction")
	exp := findSeries(t, f, "exponential contraction")
	log := findSeries(t, f, "logarithmic contraction")
	// All start near 1 and end near σ.
	for _, s := range []Series{lin, exp, log} {
		if s.Points[0].Y < 0.9 || lastY(s) > 0.25 {
			t.Fatalf("fig8 %s endpoints wrong: %g → %g", s.Label, s.Points[0].Y, lastY(s))
		}
	}
	// Shape ordering at the quarter point.
	q := len(lin.Points) / 4
	if !(exp.Points[q].Y < lin.Points[q].Y && lin.Points[q].Y < log.Points[q].Y) {
		t.Fatalf("fig8 ordering at quarter point: exp=%g lin=%g log=%g",
			exp.Points[q].Y, lin.Points[q].Y, log.Points[q].Y)
	}
}

func TestFig9Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	// The budget is a deadline the chain run checks, not a question asked
	// after a configuration finishes: rowstore-lite's first nested loop
	// alone is 4·10⁸ comparisons here.
	start := time.Now()
	f, err := Fig9(Fig9Config{N: 20000, Budget: 10 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("three 10 ms budgets took %v", d)
	}
	for _, s := range f.Series {
		if !s.DNF {
			t.Fatalf("%s finished %d configurations inside 10 ms without DNF", s.Label, len(s.Points))
		}
	}
	eventually(t, 3, func() error {
		f, err := Fig9(Fig9Config{N: 256, Ks: []int{2, 4, 8, 16, 32}, Budget: 3 * time.Second, Seed: 2})
		if err != nil {
			return err
		}
		col := findSeries(t, f, "colstore")
		txn := findSeries(t, f, "rowstore-txn")
		lite := findSeries(t, f, "rowstore-lite")
		// The binary-table engine completes the whole sweep.
		if col.DNF || len(col.Points) != 5 {
			return fmt.Errorf("colstore did not complete: %d points DNF=%v", len(col.Points), col.DNF)
		}
		// And is the fastest at the longest chain each row engine reached.
		for _, rs := range []Series{txn, lite} {
			k := rs.Points[len(rs.Points)-1].X
			for _, p := range col.Points {
				if p.X == k && lastY(rs) < p.Y {
					return fmt.Errorf("fig9: %s (%g s) beat colstore (%g s) at k=%g", rs.Label, lastY(rs), p.Y, k)
				}
			}
		}
		return nil
	})
}

func TestFig10Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	eventually(t, 3, func() error {
		f, err := Fig10(Fig10Config{N: 50000, K: 40, Selectivities: []float64{0.05, 0.75}, Seed: 4})
		if err != nil {
			return err
		}
		if len(f.Series) != 4 {
			return fmt.Errorf("fig10 series = %v", labels(f))
		}
		// Cracking clearly wins at low selectivity. At σ=75% the ranges
		// stay near table size, so at this reduced scale the two curves
		// run close together (at paper scale cracking still edges ahead);
		// assert it is at least competitive.
		crack5 := findSeries(t, f, "crack  5%")
		nocrack5 := findSeries(t, f, "nocrack  5%")
		if lastY(crack5) >= lastY(nocrack5) {
			return fmt.Errorf("fig10 σ=5%%: crack %g ≥ nocrack %g", lastY(crack5), lastY(nocrack5))
		}
		crack75 := findSeries(t, f, "crack 75%")
		nocrack75 := findSeries(t, f, "nocrack 75%")
		if lastY(crack75) > 1.6*lastY(nocrack75) {
			return fmt.Errorf("fig10 σ=75%%: crack %g far above nocrack %g", lastY(crack75), lastY(nocrack75))
		}
		return nil
	})
}

func TestFig11Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	eventually(t, 3, func() error {
		f, err := Fig11(Fig11Config{N: 50000, K: 60, Sigma: 0.05, Seed: 8})
		if err != nil {
			return err
		}
		crack := findSeries(t, f, "crack")
		nocrack := findSeries(t, f, "nocrack")
		sorted := findSeries(t, f, "sort")
		// Cracking beats scanning by the end.
		if lastY(crack) >= lastY(nocrack) {
			return fmt.Errorf("fig11: crack %g ≥ nocrack %g", lastY(crack), lastY(nocrack))
		}
		// Sort pays a large upfront cost: after the first query, sort's
		// cumulative time exceeds crack's.
		if sorted.Points[0].Y <= crack.Points[0].Y {
			return fmt.Errorf("fig11: sort first query %g not above crack %g", sorted.Points[0].Y, crack.Points[0].Y)
		}
		return nil
	})
}

func TestSQLLevelBreakdown(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	eventually(t, 3, func() error {
		res, err := SQLLevel(SQLLevelConfig{N: 30000, Sigma: 0.05, Seed: 6})
		if err != nil {
			return err
		}
		// SQL-level cracking costs more than a single materialization (it
		// runs two), and far more than the kernel-level crack.
		if res.CrackSQLLevel <= res.StoreResult {
			return fmt.Errorf("SQL-level crack %v not above one materialization %v", res.CrackSQLLevel, res.StoreResult)
		}
		if res.CrackKernelLevel*2 >= res.CrackSQLLevel {
			return fmt.Errorf("kernel crack %v not well below SQL-level crack %v", res.CrackKernelLevel, res.CrackSQLLevel)
		}
		if res.CatalogSchemaChanges < 2 {
			return fmt.Errorf("schema changes = %d, want ≥ 2 fragments", res.CatalogSchemaChanges)
		}
		if !strings.Contains(res.String(), "kernel level") {
			return fmt.Errorf("breakdown rendering incomplete")
		}
		return nil
	})
}

func TestFigureRendering(t *testing.T) {
	f := Fig8(Fig8Config{K: 5, Sigma: 0.5})
	tsv := f.TSV()
	if !strings.Contains(tsv, "# series: linear contraction") {
		t.Fatalf("TSV missing series header:\n%s", tsv)
	}
	if !strings.Contains(f.Summary(), "linear contraction") {
		t.Fatal("summary missing series")
	}
	var sb strings.Builder
	if err := f.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != tsv {
		t.Fatal("WriteTSV differs from TSV")
	}
	empty := Figure{ID: "x", Series: []Series{{Label: "none"}}}
	if !strings.Contains(empty.Summary(), "(empty)") {
		t.Fatal("empty series not flagged")
	}
}

func TestFig10UsesRho(t *testing.T) {
	// Exponential homeruns shrink faster, so cracking converges quicker:
	// total crack time under exponential ρ must not exceed linear ρ by
	// much (regression guard that Rho is actually plumbed through).
	lin, err := Fig10(Fig10Config{N: 30000, K: 30, Selectivities: []float64{0.05}, Rho: mqs.Linear, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Fig10(Fig10Config{N: 30000, K: 30, Selectivities: []float64{0.05}, Rho: mqs.Exponential, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	linCrack := findSeries(t, lin, "crack  5%")
	expCrack := findSeries(t, exp, "crack  5%")
	if lastY(expCrack) > 2*lastY(linCrack)+0.05 {
		t.Fatalf("exponential crack %g wildly above linear crack %g", lastY(expCrack), lastY(linCrack))
	}
}

func TestFigHikingShape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shapes are meaningless under the race detector")
	}
	eventually(t, 3, func() error {
		f, err := FigHiking(FigHikingConfig{N: 50000, K: 40, Sigma: 0.05, Seed: 12})
		if err != nil {
			return err
		}
		crack := findSeries(t, f, "crack")
		nocrack := findSeries(t, f, "nocrack")
		// Overlapping windows reuse cuts heavily: cracking wins clearly.
		if lastY(crack) >= lastY(nocrack) {
			return fmt.Errorf("hiking: crack %g ≥ nocrack %g", lastY(crack), lastY(nocrack))
		}
		return nil
	})
}

func TestDefaults(t *testing.T) {
	sels := DefaultFig1Selectivities()
	if len(sels) < 5 || sels[0] != 0.01 || sels[len(sels)-1] < 0.99 {
		t.Fatalf("Fig1 selectivity sweep = %v", sels)
	}
	var f2 Fig2Config
	f2.defaults()
	if f2.N != 1_000_000 || f2.K != 20 || len(f2.Selectivities) == 0 {
		t.Fatalf("Fig2 defaults = %+v", f2)
	}
	var f9 Fig9Config
	f9.defaults()
	if f9.N != 4096 || len(f9.Ks) == 0 || f9.Budget <= 0 {
		t.Fatalf("Fig9 defaults = %+v", f9)
	}
	var f10 Fig10Config
	f10.defaults()
	if f10.N != 1_000_000 || f10.K != 128 || len(f10.Selectivities) != 3 {
		t.Fatalf("Fig10 defaults = %+v", f10)
	}
	var f11 Fig11Config
	f11.defaults()
	if f11.Sigma != 0.05 {
		t.Fatalf("Fig11 defaults = %+v", f11)
	}
	var fh FigHikingConfig
	fh.defaults()
	if fh.K != 128 {
		t.Fatalf("FigHiking defaults = %+v", fh)
	}
}
