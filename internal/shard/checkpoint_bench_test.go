package shard_test

import (
	"path/filepath"
	"sort"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
)

// BenchmarkCheckpoint times a checkpoint under the sparse-write regime
// the delta format exists for: each iteration dirties one of eight
// shards, then checkpoints in the named mode. imgbytes/op reports how
// much image the checkpoint wrote — full mode rewrites every shard,
// delta mode only the dirty one (plus the periodic compaction back to
// a full image, which is charged to the delta side honestly).
func BenchmarkCheckpoint(b *testing.B) {
	for _, mode := range []string{"full", "delta"} {
		b.Run("mode="+mode, func(b *testing.B) {
			dir := b.TempDir()
			s, _, err := shard.OpenDurable(dir, rangeOpts())
			if err != nil {
				b.Fatal(err)
			}
			defer s.CloseWAL()
			if err := s.CreateTable("t", "k", "v"); err != nil {
				b.Fatal(err)
			}
			rows := make([][]int64, 8000)
			for i := range rows {
				rows[i] = []int64{int64(i), int64(i % 97)}
			}
			if err := s.InsertRows("t", rows); err != nil {
				b.Fatal(err)
			}
			for lo := int64(0); lo < 7500; lo += 300 {
				if _, err := s.CountWhere("t",
					crackdb.Cond{Col: "k", Op: ">=", Val: lo},
					crackdb.Cond{Col: "k", Op: "<", Val: lo + 250}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Checkpoint(true); err != nil {
				b.Fatal(err)
			}
			var written int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// ~0.25% of the rows change, all inside shard 0's range.
				batch := make([][]int64, 20)
				for j := range batch {
					batch[j] = []int64{int64((i*20 + j) % 1000), int64(i)}
				}
				if err := s.InsertRows("t", batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				got, err := s.Checkpoint(mode == "full")
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got == "full" {
					written += dirBytes(b, filepath.Join(dir, "store"))
				} else {
					written += dirBytes(b, newestDeltaDir(b, dir))
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(written)/float64(b.N), "imgbytes/op")
		})
	}
}

// newestDeltaDir returns the chain element the last delta checkpoint
// wrote — the highest-ordinal delta-* dir.
func newestDeltaDir(b *testing.B, dataDir string) string {
	b.Helper()
	dirs := deltaDirs(b, dataDir)
	if len(dirs) == 0 {
		b.Fatal("delta checkpoint reported but no chain element on disk")
	}
	sort.Strings(dirs)
	return dirs[len(dirs)-1]
}
