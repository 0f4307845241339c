package figures

import (
	"fmt"
	"net"
	"sync"
	"time"

	"crackdb/internal/server"
	"crackdb/internal/shard"
)

// FigBatchConfig parameterizes the batched/pipelined throughput
// experiment: end-to-end queries per second against batch size, one
// series per client count. Batch size 1 is the synchronous wire
// protocol (one request, wait, one response); larger batches pipeline a
// whole window of tagged requests per round trip, which the server
// additionally collapses into vectorized store entries when consecutive
// statements hit the same column.
type FigBatchConfig struct {
	N    int   // table cardinality (default 100k)
	K    int   // queries per cell (default 4096)
	Seed int64 // RNG seed
}

// Every cell counts ranges of batchWidth over batchShards shards.
const (
	batchWidth  = 100
	batchShards = 4
)

func (c *FigBatchConfig) defaults() {
	if c.N <= 0 {
		c.N = 100_000
	}
	if c.K <= 0 {
		c.K = 4096
	}
}

// FigBatch sweeps wire throughput against batch size. Every cell runs
// against a fresh loopback server over a fresh sharded tapestry, so
// crack state and connection state never leak between cells.
func FigBatch(cfg FigBatchConfig) (Figure, error) {
	cfg.defaults()
	var series []Series
	for _, clients := range []int{1, 4, 8} {
		s := Series{Label: fmt.Sprintf("%d clients", clients)}
		for _, batch := range []int{1, 8, 64, 512} {
			qps, err := measureBatchCell(cfg, clients, batch)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(batch), Y: qps})
		}
		series = append(series, s)
	}
	return Figure{
		ID:     "batch",
		Title:  fmt.Sprintf("Pipelined wire throughput vs batch size (N=%d, %d shards)", cfg.N, batchShards),
		XLabel: "batch size",
		YLabel: "queries/s",
		Series: series,
	}, nil
}

// measureBatchCell runs one (clients, batch) cell: clients concurrent
// connections each answering its share of cfg.K range counts, batch
// requests per pipeline window (batch 1 = synchronous Do). The tapestry
// key is a permutation of 1..N, so every count is validated against its
// exact width.
func measureBatchCell(cfg FigBatchConfig, clients, batch int) (float64, error) {
	st := shard.New(shard.Options{Shards: batchShards, Kind: shard.Range})
	if err := st.LoadTapestry("t", cfg.N, 1, cfg.Seed); err != nil {
		return 0, err
	}
	srv := server.New(st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	go srv.Serve(ln)
	defer srv.Shutdown(2 * time.Second)
	addr := ln.Addr().String()

	perWorker := cfg.K / clients
	if perWorker < 1 {
		perWorker = 1
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = batchWorker(cfg, addr, batch, perWorker, int64(w))
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(perWorker*clients) / elapsed.Seconds(), nil
}

func batchWorker(cfg FigBatchConfig, addr string, batch, queries int, worker int64) error {
	c, err := server.DialTimeout(addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	maxLo := int64(cfg.N) - batchWidth
	pos := func(i int) int64 {
		// Deterministic low-discrepancy walk, distinct per worker.
		return 1 + (cfg.Seed+worker*31+int64(i)*2654435761)%maxLo
	}
	stmt := func(i int) string {
		lo := pos(i)
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 < %d", lo, lo+batchWidth)
	}
	if batch <= 1 {
		for i := 0; i < queries; i++ {
			got, err := c.Count(stmt(i))
			if err != nil {
				return err
			}
			if got != batchWidth {
				return fmt.Errorf("figures: batch cell count %d, want %d", got, batchWidth)
			}
		}
		return nil
	}
	stmts := make([]string, 0, batch)
	for i := 0; i < queries; {
		stmts = stmts[:0]
		for len(stmts) < batch && i+len(stmts) < queries {
			stmts = append(stmts, stmt(i+len(stmts)))
		}
		resps, err := c.DoBatch(stmts)
		if err != nil {
			return err
		}
		for _, resp := range resps {
			if resp.Err != "" {
				return fmt.Errorf("figures: batch cell: %s", resp.Err)
			}
			got, err := resp.Int64(0, 0)
			if err != nil {
				return err
			}
			if got != batchWidth {
				return fmt.Errorf("figures: batch cell count %d, want %d", got, batchWidth)
			}
		}
		i += len(stmts)
	}
	return nil
}
