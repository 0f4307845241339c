package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crackdb"
	"crackdb/internal/workload"
)

// FigRecoveryConfig parameterizes the warm-restart experiment.
type FigRecoveryConfig struct {
	N           int     // table cardinality (default 200 000)
	K           int     // queries per trajectory (default 256)
	Seed        int64   // RNG seed
	Selectivity float64 // per-query range width fraction (default 0.01)
	Strategy    string  // crack strategy ("" = standard)
}

func (c *FigRecoveryConfig) defaults() {
	if c.N <= 0 {
		c.N = 200_000
	}
	if c.K <= 0 {
		c.K = 256
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
}

// FigRecovery measures what the durability subsystem buys: the paper's
// prototype drops cracker indexes at shutdown (§5.2), so a restart
// re-pays the convergence cost of Figures 10/11; a warm reopen (the
// image's crack state restored) resumes at converged latency. Three
// per-query latency trajectories over the same random workload:
//
//   - "cold start":   a fresh store; query 1 pays the first-touch scan,
//     then the usual cracking convergence;
//   - "cold reopen":  Save + OpenCold (the image's tables only, the
//     paper's behavior) — indistinguishable from cold start past the load;
//   - "warm reopen":  Save + Open of a store converged by K queries —
//     the trajectory starts where the cold ones end.
func FigRecovery(cfg FigRecoveryConfig) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "recovery",
		Title:  fmt.Sprintf("restart cost: warm reopen vs re-crack from scratch (N=%d)", cfg.N),
		XLabel: "query number after (re)start",
		YLabel: "response time (s)",
	}

	// One image of the converged store is the common ancestor of both
	// reopen trajectories.
	dir, err := os.MkdirTemp("", "crackdb-recovery-*")
	if err != nil {
		return Figure{}, err
	}
	defer os.RemoveAll(dir)

	// The strategy is the process's posture, not the image's: every store
	// below gets it, fresh or reopened.
	withStrategy := func(s *crackdb.Store, err error) (*crackdb.Store, error) {
		if err == nil && cfg.Strategy != "" && cfg.Strategy != "standard" {
			err = s.SetCrackStrategy(cfg.Strategy, cfg.Seed)
		}
		return s, err
	}
	base, err := withStrategy(crackdb.New(), nil)
	if err != nil {
		return Figure{}, err
	}
	if err := base.LoadTapestry("r", cfg.N, 1, cfg.Seed); err != nil {
		return Figure{}, err
	}
	coldStart, err := runRecoveryStream(base, cfg, cfg.Seed+1)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, Series{Label: "cold start (fresh store)", Points: coldStart})

	image := filepath.Join(dir, "store.crk")
	if err := base.Save(image); err != nil {
		return Figure{}, err
	}

	cold, err := withStrategy(crackdb.OpenCold(image))
	if err != nil {
		return Figure{}, err
	}
	coldReopen, err := runRecoveryStream(cold, cfg, cfg.Seed+2)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, Series{Label: "cold reopen (BATs only, §5.2)", Points: coldReopen})

	warm, err := withStrategy(crackdb.Open(image))
	if err != nil {
		return Figure{}, err
	}
	warmReopen, err := runRecoveryStream(warm, cfg, cfg.Seed+3)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, Series{Label: "warm reopen (crack state restored)", Points: warmReopen})

	sortSeries(fig.Series)
	return fig, nil
}

// runRecoveryStream drives K random range counts against the store and
// returns the per-query latencies.
func runRecoveryStream(s *crackdb.Store, cfg FigRecoveryConfig, seed int64) ([]Point, error) {
	gen, err := workload.New(workload.Random, workload.Config{
		Domain:      int64(cfg.N),
		Count:       cfg.K,
		Selectivity: cfg.Selectivity,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, cfg.K)
	for i := 1; ; i++ {
		q, ok := gen.Next()
		if !ok {
			return points, nil
		}
		t0 := time.Now()
		// Tapestry values live in 1..N; the generator emits [lo, hi) over
		// [0, N).
		if _, err := s.Count("r", "c0", q.Lo+1, q.Hi); err != nil {
			return nil, err
		}
		points = append(points, Point{X: float64(i), Y: seconds(time.Since(t0))})
	}
}
