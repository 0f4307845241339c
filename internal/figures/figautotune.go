package figures

import (
	"fmt"
	"time"

	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// FigAutotuneConfig parameterizes the workload-adaptive tuning
// experiment: a query stream that switches regime halfway — a
// sequential walk (standard cracking's collapse case) for the first
// half, uniform random (standard's best case) for the second.
type FigAutotuneConfig struct {
	N           int     // column cardinality (default 200k)
	K           int     // total queries; half per phase (default 1024)
	Seed        int64   // RNG seed for data, workloads and strategies
	Selectivity float64 // per-query range width as a domain fraction (default 0.01)
}

func (c *FigAutotuneConfig) defaults() {
	if c.N <= 0 {
		c.N = 200_000
	}
	if c.K <= 0 {
		c.K = 1024
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
}

// FigAutotune compares three postures on the switching stream:
// static standard, static ddr, and the auto-tuner starting from
// standard. The shapes tell the whole story: static standard collapses
// through the sequential phase and only recovers when the walk ends;
// static ddr stays flat through the walk and pays its auxiliary cracks
// in the random phase; the autotune series starts on standard, flips to
// ddr once the monitor confirms the walk, and flips back to standard
// when the stream turns random — tracking whichever static line is
// lower, one detection window behind. Y is per-query latency averaged
// over small buckets, so the trajectory (not the cumulative integral)
// is visible.
func FigAutotune(cfg FigAutotuneConfig) (Figure, error) {
	fig, _, err := figAutotune(cfg)
	return fig, err
}

// figAutotune also returns what the autotune series' store reported
// through TuneDecisions when each phase ended: the sequential half, then
// the random half.
func figAutotune(cfg FigAutotuneConfig) (Figure, [2][]tuner.Decision, error) {
	cfg.defaults()
	var phaseEnd [2][]tuner.Decision
	stream, err := switchingStream(cfg)
	if err != nil {
		return Figure{}, phaseEnd, err
	}
	queries := fromWorkload(stream)

	bucket := max(cfg.K/64, 1)
	// React inside the figure's short phases: the store default (64×2)
	// is tuned for million-query servers.
	tc := tuner.Config{Window: 32, Confirm: 2, Cooldown: 64, Monotone: 0.85}
	var series []Series
	for _, mode := range []string{"standard", "ddr", "autotune"} {
		p := posture{strategy: mode}
		if mode == "autotune" {
			p = posture{autotune: &tc}
		}
		store, a, err := openStore(p, cfg.N, cfg.Seed)
		if err != nil {
			return Figure{}, phaseEnd, err
		}
		s := Series{Label: mode}
		var acc time.Duration
		err = replay(a, queries, func(i int, st step) {
			acc += st.Elapsed
			if p.autotune != nil {
				switch i + 1 {
				case cfg.K / 2:
					phaseEnd[0] = store.TuneDecisions()
				case len(queries):
					phaseEnd[1] = store.TuneDecisions()
				}
			}
			if (i+1)%bucket == 0 || i == len(queries)-1 {
				nq := (i + 1) % bucket
				if nq == 0 {
					nq = bucket
				}
				s.Points = append(s.Points, Point{X: float64(i + 1), Y: seconds(acc) / float64(nq)})
				acc = 0
			}
		})
		if err != nil {
			return Figure{}, phaseEnd, err
		}
		series = append(series, s)
	}

	return Figure{
		ID:     "autotune",
		Title:  fmt.Sprintf("Workload-adaptive strategy tuning (N=%d, %d queries, sequential→random switch)", cfg.N, cfg.K),
		XLabel: "query #",
		YLabel: "per-query seconds (bucket mean)",
		Series: series,
	}, phaseEnd, nil
}

// switchingStream builds the two-phase query stream: a sequential walk
// for the first half, uniform random for the second.
func switchingStream(cfg FigAutotuneConfig) ([]workload.Query, error) {
	half := cfg.K / 2
	seqGen, err := workload.New(workload.Sequential, workload.Config{
		Domain: int64(cfg.N), Count: half, Selectivity: cfg.Selectivity, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	rndGen, err := workload.New(workload.Random, workload.Config{
		Domain: int64(cfg.N), Count: cfg.K - half, Selectivity: cfg.Selectivity, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return append(seqGen.Queries(), rndGen.Queries()...), nil
}
