package crackdb_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/server"
	"crackdb/internal/shard"
)

// BenchmarkBatchSelect measures the vectorized store entry against the
// scalar API it amortizes. The benchmark cycles a fixed pool of queries
// whose cuts are already registered — converged lookups, no further
// cracking — so the numbers isolate per-query fixed cost: store
// registry, column locks, strategy consultation, result construction.
// That fixed cost is exactly what SelectBatch pays once per batch
// instead of once per query. The speedup metric is per-query time of
// the scalar loop over the batched path on the same converged store.
func BenchmarkBatchSelect(b *testing.B) {
	const (
		n     = 200_000
		width = 8
		pool  = 512
	)
	for _, op := range []string{"select", "count"} {
		for _, batch := range []int{1, 8, 64, 512} {
			b.Run(fmt.Sprintf("op=%s/batch=%d", op, batch), func(b *testing.B) {
				s := crackdb.New()
				if err := s.LoadTapestry("t", n, 1, 42); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				queries := make([]crackdb.Range, pool)
				for i := range queries {
					lo := rng.Int63n(n-width) + 1
					queries[i] = crackdb.Range{Low: lo, High: lo + width - 1}
				}
				// Converge: one scalar pass registers every pool query's
				// cuts, so the timed loop is pure index lookups.
				for _, q := range queries {
					if _, err := s.Count("t", "c0", q.Low, q.High); err != nil {
						b.Fatal(err)
					}
				}
				ranges := make([]crackdb.Range, b.N)
				for i := range ranges {
					ranges[i] = queries[i%pool]
				}
				// Untimed scalar baseline: the natural one-query-at-a-time
				// API over a sample of the same stream.
				sample := 2000
				if sample > b.N {
					sample = b.N
				}
				start := time.Now()
				for i := 0; i < sample; i++ {
					if op == "select" {
						if _, err := s.Select("t", "c0", ranges[i].Low, ranges[i].High); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := s.Count("t", "c0", ranges[i].Low, ranges[i].High); err != nil {
							b.Fatal(err)
						}
					}
				}
				baseNs := float64(time.Since(start).Nanoseconds()) / float64(sample)

				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					k := batch
					if b.N-done < k {
						k = b.N - done
					}
					chunk := ranges[done : done+k]
					if op == "select" {
						res, err := s.SelectBatch("t", "c0", chunk)
						if err != nil {
							b.Fatal(err)
						}
						if len(res) != k || len(res[0].Values()) != width {
							b.Fatalf("batch answered %d results, first %d values", len(res), len(res[0].Values()))
						}
					} else {
						counts, err := s.CountBatch("t", "c0", chunk)
						if err != nil {
							b.Fatal(err)
						}
						if counts[0] != width { // permutation key: exact width
							b.Fatalf("count %d, want %d", counts[0], width)
						}
					}
					done += k
				}
				b.StopTimer()
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(b.N)/sec, "qps")
					if perQ := float64(b.Elapsed().Nanoseconds()) / float64(b.N); perQ > 0 {
						b.ReportMetric(baseNs/perQ, "speedup")
					}
				}
			})
		}
	}
}

// BenchmarkPipelinedWire compares the synchronous wire protocol (one
// request per round trip) with the pipelined one (a window of tagged
// requests per round trip) at 4 clients over loopback. Both modes run
// identical query streams against identical fresh servers; each reports
// its qps, and the pipelined mode additionally reports its speedup over
// an untimed synchronous run of the same per-client share.
func BenchmarkPipelinedWire(b *testing.B) {
	const (
		n       = 100_000
		clients = 4
		window  = 64
		width   = 100
	)
	for _, mode := range []string{"sync", "pipelined"} {
		b.Run(fmt.Sprintf("mode=%s/clients=%d", mode, clients), func(b *testing.B) {
			st := shard.New(shard.Options{Shards: 4, Kind: shard.Range})
			if err := st.LoadTapestry("t", n, 1, 42); err != nil {
				b.Fatal(err)
			}
			srv := server.New(st, nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(2 * time.Second)
			addr := ln.Addr().String()

			perClient := b.N / clients
			if perClient < 1 {
				perClient = 1
			}
			run := func(pipelined bool) time.Duration {
				var wg sync.WaitGroup
				start := time.Now()
				for w := 0; w < clients; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						if err := wireWorker(b, addr, pipelined, perClient, w, n, width, window); err != nil {
							b.Error(err)
						}
					}(w)
				}
				wg.Wait()
				return time.Since(start)
			}
			// Untimed synchronous baseline for the speedup metric.
			baseline := run(false)
			b.ResetTimer()
			elapsed := run(mode == "pipelined")
			b.StopTimer()
			total := float64(perClient * clients)
			if sec := elapsed.Seconds(); sec > 0 {
				b.ReportMetric(total/sec, "qps")
			}
			if mode == "pipelined" && elapsed > 0 {
				b.ReportMetric(float64(baseline)/float64(elapsed), "pipeline_speedup")
			}
		})
	}
}

func wireWorker(b *testing.B, addr string, pipelined bool, queries, worker, n int, width int64, window int) error {
	c, err := server.DialTimeout(addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	maxLo := int64(n) - width
	stmt := func(i int) string {
		lo := 1 + (int64(worker)*31+int64(i)*2654435761)%maxLo
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 < %d", lo, lo+width)
	}
	if !pipelined {
		for i := 0; i < queries; i++ {
			got, err := c.Count(stmt(i))
			if err != nil {
				return err
			}
			if got != width {
				return fmt.Errorf("count %d, want %d", got, width)
			}
		}
		return nil
	}
	stmts := make([]string, 0, window)
	for i := 0; i < queries; {
		stmts = stmts[:0]
		for len(stmts) < window && i+len(stmts) < queries {
			stmts = append(stmts, stmt(i+len(stmts)))
		}
		resps, err := c.DoBatch(stmts)
		if err != nil {
			return err
		}
		for _, resp := range resps {
			got, err := resp.Int64(0, 0)
			if err != nil {
				return err
			}
			if got != width {
				return fmt.Errorf("count %d, want %d", got, width)
			}
		}
		i += len(stmts)
	}
	return nil
}
