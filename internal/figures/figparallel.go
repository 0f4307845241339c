package figures

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crackdb"
)

// FigParallelConfig parameterizes the parallel read-path experiment.
// This figure is not in the paper — it extends the evaluation to the
// regime the paper's convergence argument implies: once a column has
// converged to pure index lookups, a read-dominated workload should
// scale with cores instead of serializing on the cracker's write lock.
type FigParallelConfig struct {
	N       int   // column cardinality (default 1M)
	Grid    int   // number of converged grid pieces (default 512)
	OpsPerG int   // lookups per goroutine per measurement (default 200k)
	Seed    int64 // RNG seed
}

func (c *FigParallelConfig) defaults() {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.N < 64 {
		c.N = 64 // below this the grid degenerates to zero-width pieces
	}
	if c.Grid <= 0 {
		c.Grid = 512
	}
	if c.Grid > c.N/2 {
		c.Grid = c.N / 2 // keep every grid piece at least two values wide
	}
	if c.Grid < 2 {
		c.Grid = 2 // the measurement draws from grid-1 pieces
	}
	if c.OpsPerG <= 0 {
		c.OpsPerG = 200_000
	}
}

// FigParallel measures converged-lookup throughput against goroutine
// count on one shared store. The column is first cracked on a fixed
// grid; the measured phase then draws grid-aligned ranges, so every
// Store.Count is answered by two index lookups under the optimistic
// read path and the experiment isolates lock behavior from crack cost.
func FigParallel(cfg FigParallelConfig) (Figure, error) {
	cfg.defaults()
	s, a, err := openStore(posture{}, cfg.N, cfg.Seed)
	if err != nil {
		return Figure{}, err
	}
	width := int64(cfg.N / cfg.Grid)
	grid := make([]query, cfg.Grid)
	for g := range grid {
		grid[g] = query{int64(g)*width + 1, int64(g+1) * width}
	}
	if err := replay(a, grid, func(int, step) {}); err != nil {
		return Figure{}, err
	}

	series := Series{Label: "converged-lookup"}
	for _, g := range []int{1, 2, 4, 8} {
		elapsed, err := measureParallelLookups(s, g, cfg.OpsPerG, grid)
		if err != nil {
			return Figure{}, err
		}
		totalOps := float64(g * cfg.OpsPerG)
		mops := totalOps / elapsed.Seconds() / 1e6
		series.Points = append(series.Points, Point{X: float64(g), Y: mops})
	}

	return Figure{
		ID:     "parallel",
		Title:  fmt.Sprintf("Converged-lookup throughput vs goroutines (N=%d, %d pieces)", cfg.N, cfg.Grid),
		XLabel: "goroutines",
		YLabel: "lookups/s (millions)",
		Series: []Series{series},
	}, nil
}

// measureParallelLookups counts ops random grid cells on each of g
// goroutines and returns the wall time of the slowest start-to-finish
// span. A count that is not the cell's width is an error, as it is in
// replay.
func measureParallelLookups(s *crackdb.Store, g, ops int, grid []query) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, g)
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < ops; i++ {
				q := grid[rng.Intn(len(grid)-1)]
				got, err := s.Count(figTable, figCol, q.Lo, q.Hi)
				if err == nil && int64(got) != q.Hi-q.Lo+1 {
					err = fmt.Errorf("figures: parallel: [%d, %d] answered %d", q.Lo, q.Hi, got)
				}
				if err != nil {
					errs[worker] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}
