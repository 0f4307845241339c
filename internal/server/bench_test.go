package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"crackdb/internal/shard"
)

// BenchmarkServerThroughput measures end-to-end queries through the
// wire protocol: framing, parse, shard routing, crack, merge, render.
// Each parallel worker owns a connection, matching the one-goroutine-
// per-conn server model.
func BenchmarkServerThroughput(b *testing.B) {
	const n = 50_000
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := shard.New(shard.Options{Shards: shards, Kind: shard.Hash})
			if err := st.LoadTapestry("t", n, 1, 42); err != nil {
				b.Fatal(err)
			}
			srv := New(st, nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(2 * time.Second)
			addr := ln.Addr().String()

			var seed atomic.Int64
			b.ReportAllocs() // allocs/op guards the pooled frame path
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c, err := DialTimeout(addr, 2*time.Second)
				if err != nil {
					b.Error(err)
					return
				}
				defer c.Close()
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					lo := rng.Int63n(n-500) + 1
					got, err := c.Count(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 < %d", lo, lo+500))
					if err != nil {
						b.Error(err)
						return
					}
					if got != 500 { // permutation key: exact width
						b.Errorf("count %d, want 500", got)
						return
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "qps")
			}
		})
	}
}
