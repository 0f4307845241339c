package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/relation"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// TestColumnarLoadMatchesRowInsert: LoadTapestry routes and appends
// generated columns; CreateTable plus InsertRows of the same tapestry's
// rows transposes them first. Both must leave the same router: the same
// routing, the same answers — also after a SQL INSERT batch that spans
// the shards — and, before any query, per-shard images byte-equal to
// each other and to a plain store per shard fed the rows its key routes
// to, in stream order, so the scatter itself is checked against rows.
func TestColumnarLoadMatchesRowInsert(t *testing.T) {
	const n, alpha, seed = 3000, 3, 17
	tap := relation.Tapestry(n, alpha, seed)
	cols := tap.ColumnNames()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = tap.Row(i)
	}
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		for _, shards := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/%d", kind, shards), func(t *testing.T) {
				opts := shard.Options{Shards: shards, Kind: kind}
				load, ins := shard.New(opts), shard.New(opts)
				mustExec(t, load.LoadTapestry("t", n, alpha, seed))
				mustExec(t, ins.CreateTable("t", cols...))
				mustExec(t, ins.InsertRows("t", rows))

				if got, want := shard.TablePartSpec(load, "t"), shard.TablePartSpec(ins, "t"); !reflect.DeepEqual(got, want) {
					t.Fatalf("partition spec: load %+v, insert %+v", got, want)
				}
				dir := t.TempDir()
				image := func(s *crackdb.Store, name string) []byte {
					path := filepath.Join(dir, name)
					mustExec(t, s.Save(path))
					img, err := os.ReadFile(path)
					mustExec(t, err)
					return img
				}
				for i := 0; i < shards; i++ {
					ref := crackdb.New()
					mustExec(t, ref.CreateTable("t", cols...))
					var mine [][]int64
					for _, r := range rows {
						if shard.RouteKey(load, "t", r[0]) == i {
							mine = append(mine, r)
						}
					}
					mustExec(t, ref.InsertRows("t", mine))
					want := image(ref, fmt.Sprintf("ref-%d", i))
					for side, st := range map[string]*shard.Store{"load": load, "insert": ins} {
						if got := image(st.Shard(i), fmt.Sprintf("%s-%d", side, i)); !bytes.Equal(got, want) {
							t.Fatalf("shard %d: image after the %s (%d bytes) differs from a store fed its %d rows (%d bytes)", i, side, len(got), len(mine), len(want))
						}
					}
				}
				sameAnswers(t, load, ins, cols, n)

				// One statement, rows on every shard: both routers take the
				// router's row path now, and must stay equal.
				var vals []string
				for k := int64(1); k <= 40; k++ {
					vals = append(vals, fmt.Sprintf("(%d, %d, %d)", n+k*37, k, -k))
				}
				stmt := "INSERT INTO t VALUES " + strings.Join(vals, ", ")
				for _, st := range []*shard.Store{load, ins} {
					if _, err := sql.NewEngineOn(st).Exec(stmt); err != nil {
						t.Fatal(err)
					}
				}
				visited := 0
				for i := 0; i < shards; i++ {
					a, err := load.Shard(i).NumRows("t")
					mustExec(t, err)
					b, err := ins.Shard(i).NumRows("t")
					mustExec(t, err)
					if a != b {
						t.Fatalf("after INSERT shard %d holds %d rows loaded, %d inserted", i, a, b)
					}
					if a > 0 {
						visited++
					}
				}
				if visited != shards {
					t.Fatalf("rows on %d of %d shards", visited, shards)
				}
				sameAnswers(t, load, ins, cols, n+40*37)
			})
		}
	}
}

// sameAnswers compares NumRows, a fixed set of range counts and
// 3-column fetches on every column, over keys up to domain.
func sameAnswers(t *testing.T, a, b *shard.Store, cols []string, domain int64) {
	t.Helper()
	na, err := a.NumRows("t")
	mustExec(t, err)
	nb, err := b.NumRows("t")
	mustExec(t, err)
	if na != nb {
		t.Fatalf("NumRows: %d loaded, %d inserted", na, nb)
	}
	for _, c := range cols {
		for _, r := range [][2]int64{{1, 2}, {1, domain / 10}, {domain / 3, domain / 2}, {domain - 50, domain + 1}, {-5, 0}, {0, domain + 1}} {
			conds := []crackdb.Cond{{Col: c, Op: ">=", Val: r[0]}, {Col: c, Op: "<", Val: r[1]}}
			ca, err := a.CountWhere("t", conds...)
			mustExec(t, err)
			cb, err := b.CountWhere("t", conds...)
			mustExec(t, err)
			if ca != cb {
				t.Fatalf("count %s in [%d, %d): %d loaded, %d inserted", c, r[0], r[1], ca, cb)
			}
			ra, err := a.SelectWhere("t", conds...)
			mustExec(t, err)
			rb, err := b.SelectWhere("t", conds...)
			mustExec(t, err)
			fa, err := ra.Rows(cols...)
			mustExec(t, err)
			fb, err := rb.Rows(cols...)
			mustExec(t, err)
			if !reflect.DeepEqual(fa, fb) {
				t.Fatalf("fetch %s in [%d, %d): %d rows loaded, %d inserted, rows differ", c, r[0], r[1], len(fa), len(fb))
			}
		}
	}
}

// TestLoadTapestryBudget: a 4-shard load builds no row. It allocates
// the generated columns, their per-shard scatter and the shards' base
// columns — three times the table's 8·n·α bytes — plus a per-row shard
// index and, for range partitioning, the sorted key sample: at most
// 3.5 × in all. The row path this replaced allocated 12.0–12.5 ×.
func TestLoadTapestryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const n, alpha = 100_000, 4
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		s := shard.New(shard.Options{Shards: 4, Kind: kind})
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		mustExec(t, s.LoadTapestry("t", n, alpha, 1))
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / (8 * n * alpha)
		t.Logf("%s: %d × %d load on 4 shards: %.2f × 8·n·α bytes, %d allocations, %v", kind, n, alpha, ratio, m1.Mallocs-m0.Mallocs, took)
		if ratio > 3.5 {
			t.Errorf("%s: the load allocates %.2f × its 8·n·α bytes, budget 3.5 ×", kind, ratio)
		}
		if got, err := s.NumRows("t"); err != nil || got != n {
			t.Fatalf("%s: %d rows (%v), want %d", kind, got, err, n)
		}
	}
}
