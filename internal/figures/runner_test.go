package figures

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"crackdb/internal/mqs"
)

// replay is the oracle every cracking figure runs under: the served
// store and both baselines answer every step of the §4 profiles with
// the tapestry's range width, and a series that does not is an error,
// not a line on a plot.
func TestReplayChecksEveryCount(t *testing.T) {
	const n, seed = 5000, 11
	m := mqs.MQS{Alpha: 1, N: n, K: 25, Sigma: 0.1, Rho: mqs.Linear}
	for name, gen := range map[string]func(mqs.MQS, string, int64) ([]mqs.Query, error){
		"homerun": mqs.Homerun, "hiking": mqs.Hiking, "strolling": mqs.Strolling,
	} {
		seq, err := gen(m, figCol, seed)
		if err != nil {
			t.Fatal(err)
		}
		qs := fromMQS(seq)
		_, crack, err := openStore(posture{}, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		vals := tapestryColumn(n, seed)
		for line, a := range map[string]answerer{"crack": crack, "nocrack": nocrack(vals), "sort": sortFirst(vals)} {
			steps := 0
			err := replay(a, qs, func(i int, st step) {
				steps++
				if want := int(qs[i].Hi - qs[i].Lo + 1); st.Count != want {
					t.Errorf("%s/%s step %d: visit saw %d, want %d", name, line, i, st.Count, want)
				}
			})
			if err != nil || steps != len(qs) {
				t.Fatalf("%s/%s: %d of %d steps, err %v", name, line, steps, len(qs), err)
			}
		}
	}

	// A baseline that is off by one on one query stops the figure there.
	calls := 0
	wrong := nocrack(tapestryColumn(100, 1))
	scan := wrong.count
	wrong.count = func(lo, hi int64) (int, error) {
		c, err := scan(lo, hi)
		if calls++; calls == 3 {
			c++
		}
		return c, err
	}
	visited := 0
	err := replay(wrong, []query{{1, 10}, {5, 50}, {20, 30}, {1, 100}}, func(int, step) { visited++ })
	if err == nil || !strings.Contains(err.Error(), "step 2") || visited != 2 {
		t.Fatalf("wrong baseline: err %v after %d visited steps, want an error at step 2", err, visited)
	}
	// Ranges reaching outside 1..n are clipped, not miscounted.
	if err := replay(nocrack(tapestryColumn(100, 1)), []query{{-5, 10}, {90, 1 << 40}, {200, 300}}, func(int, step) {}); err != nil {
		t.Fatal(err)
	}
}

// The served store's counters reach the figure as per-step deltas.
func TestReplayHandsStatsDeltas(t *testing.T) {
	_, a, err := openStore(posture{}, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []step
	if err := replay(a, []query{{100, 200}, {100, 200}, {300, 400}}, func(_ int, st step) { got = append(got, st) }); err != nil {
		t.Fatal(err)
	}
	if got[0].Work.Cracks == 0 || got[0].Work.Queries != 1 || got[0].Work.Pieces != 3 {
		t.Fatalf("first query: %+v", got[0].Work)
	}
	if got[1].Work.Cracks != 0 || got[1].Work.TuplesMoved != 0 || got[1].Work.Queries != 1 {
		t.Fatalf("repeated query did work: %+v", got[1].Work)
	}
	if got[2].Work.Cracks == 0 || got[2].Work.Pieces != 5 {
		t.Fatalf("third query: %+v", got[2].Work)
	}
}

// The autotune series is the store's own tuner, not a loop around a
// private column: the store must report the flip to ddr by the end of
// the sequential half and the flip back by the end of the random half.
func TestFigAutotuneFlipsThroughStore(t *testing.T) {
	fig, phaseEnd, err := figAutotune(FigAutotuneConfig{N: 20000, K: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(fig); strings.Join(got, ",") != "standard,ddr,autotune" {
		t.Fatalf("series = %v", got)
	}
	seq, rnd := phaseEnd[0], phaseEnd[1]
	if len(seq) != 1 || seq[0].Strategy != "ddr" || seq[0].Flips != 1 {
		t.Fatalf("after the sequential half the store reports %+v, want one flip to ddr", seq)
	}
	if len(rnd) != 1 || rnd[0].Strategy != "standard" || rnd[0].Flips != 2 {
		t.Fatalf("after the random half the store reports %+v, want a second flip back to standard", rnd)
	}
}

func TestFigConvergenceDrains(t *testing.T) {
	fig, err := FigConvergence(FigConvergenceConfig{N: 20000, Queries: 2048, Grid: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Both latency series come from the histograms EnableObservability
	// registered; an empty one means the family name drifted.
	for _, label := range []string{"cracking write-hold mean", "converged read-hold mean"} {
		if s := findSeries(t, fig, label); len(s.Points) == 0 {
			t.Fatalf("series %q is empty", label)
		}
	}
	frac := findSeries(t, fig, "queries that cracked (%)")
	if frac.Points[0].Y != 100 || lastY(frac) > 5 {
		t.Fatalf("crack fraction runs %v → %v, want 100 → ~0 on a 64-bound grid", frac.Points[0].Y, lastY(frac))
	}
}

func TestFigParallelCountsExactly(t *testing.T) {
	fig, err := FigParallel(FigParallelConfig{N: 10000, Grid: 32, OpsPerG: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s := findSeries(t, fig, "converged-lookup"); len(s.Points) != 4 || s.Points[0].Y <= 0 {
		t.Fatalf("points = %+v", s.Points)
	}
}

func TestFig5(t *testing.T) {
	out, err := Fig5(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Ξ on R.a: 9 tuples", "Ξ on R.a: 4 tuples", "Ξ on S.b: 15 tuples", "^ on R.k = S.k: R⋉S=",
		"-- R.a --", "Ξ(R.a < 5)", "-- R.k --", "^(⋉ S.k)", "-- S.k --", "-- S.b --",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig 5 output lacks %q:\n%s", want, out)
		}
	}
}

// The boundary is checked, not remembered: no generator may reach past
// crackdb.Store for a cracker column of its own.
func TestFiguresStayOffCore(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"crackdb/internal/core"` {
					t.Errorf("%s imports crackdb/internal/core: drive a *crackdb.Store through the runner instead", name)
				}
			}
		}
	}
}
