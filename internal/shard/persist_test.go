package shard_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/durable"
	"crackdb/internal/oracle"
	"crackdb/internal/shard"
	"crackdb/internal/tuner"
)

// loadMixed boots a durable sharded store in dir and cracks the oracle's
// table in it: a bulk load, a count stream, inserts mid-stream.
func loadMixed(t *testing.T, dir string, opts shard.Options, seed int64) (*shard.Store, *oracle.Model) {
	t.Helper()
	s, _, err := shard.OpenDurable(dir, opts)
	mustExec(t, err)
	return s, oracle.Run(t, oracle.New(oracle.Config{Seed: seed, Ops: 40, Load: 5000, Domain: 8000, MaxBatch: 400,
		Selectivity: 0.05, Mix: oracle.Mix{oracle.Count: 8, oracle.Insert: 1}}), nil, oracle.Router(s))
}

// TestShardSaveOpenByteIdentical: a sharded store rebooted from its
// checkpoint must answer every query — rows, order, counts, group-bys —
// exactly like the original, for both partition kinds, with every
// shard's crack state intact.
func TestShardSaveOpenByteIdentical(t *testing.T) {
	for _, kind := range []shard.Kind{shard.Hash, shard.Range} {
		t.Run(string(kind), func(t *testing.T) {
			opts := shard.Options{Shards: 4, Kind: kind}
			dir := t.TempDir()
			src, m := loadMixed(t, dir, opts, 31)
			if _, err := src.Checkpoint(false); err != nil {
				t.Fatal(err)
			}
			if err := src.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			// The options a reboot is handed lose to the checkpoint's.
			dst, info, err := shard.OpenDurable(dir, shard.Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.CloseWAL()
			if !info.Recovered || info.Replayed != 0 {
				t.Fatalf("reboot did not come from the checkpoint alone: %+v", info)
			}
			if got, want := dst.ShardCount(), src.ShardCount(); got != want {
				t.Fatalf("reopened with %d shards, want %d", got, want)
			}
			if !reflect.DeepEqual(dst.Partitions(), src.Partitions()) {
				t.Fatalf("routing changed across reopen:\n got %+v\nwant %+v",
					dst.Partitions(), src.Partitions())
			}
			// Per-shard row placement must be identical, not just the
			// merged answer: that is what "byte-identical router" means.
			for i := 0; i < src.ShardCount(); i++ {
				a, err := src.Shard(i).NumRows("t")
				if err != nil {
					t.Fatal(err)
				}
				b, err := dst.Shard(i).NumRows("t")
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("shard %d holds %d rows reopened, %d originally", i, b, a)
				}
			}
			// Both answer the model alike: rows in order, counts, group-bys.
			oracle.Run(t, oracle.New(oracle.Config{Seed: 77, Ops: 30, Domain: 8000, Selectivity: 0.05,
				Mix: oracle.Mix{oracle.Select: 6, oracle.Count: 3, oracle.Group: 1}}), m, oracle.Router(dst), oracle.Router(src))
			// Crack state survived per shard.
			pa, err := src.ShardStats("t", "k")
			if err != nil {
				t.Fatal(err)
			}
			pb, err := dst.ShardStats("t", "k")
			if err != nil {
				t.Fatal(err)
			}
			for i := range pa {
				if pa[i].Pieces != pb[i].Pieces {
					t.Fatalf("shard %d pieces: %d reopened, %d originally", i, pb[i].Pieces, pa[i].Pieces)
				}
			}
		})
	}
}

// TestOpenDurableCheckpointCrash walks the full recovery protocol:
// mutations, checkpoint, more mutations, "crash" (drop everything),
// reboot — and after reboot both the pre- and post-checkpoint mutations
// are there, exactly once: the inserts, and a delete of a row the
// checkpoint holds.
func TestOpenDurableCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 3, Kind: shard.Range}

	s1, info, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered || info.Replayed != 0 {
		t.Fatalf("fresh dir reported %+v", info)
	}
	if s1.WAL() == nil {
		t.Fatal("OpenDurable store has no WAL attached")
	}
	if err := s1.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rows1 := [][]int64{{1, 10}, {500, 20}, {900, 30}}
	if err := s1.InsertRows("t", rows1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.CountWhere("t", crackdb.Cond{Col: "k", Op: "<", Val: 600}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if st := s1.WAL().Status(); st.Records != 0 || st.BaseSeq == 0 {
		t.Fatalf("post-checkpoint WAL status %+v", st)
	}
	// Post-checkpoint mutations live only in the WAL.
	rows2 := [][]int64{{42, 1}, {777, 2}}
	if err := s1.InsertRows("t", rows2); err != nil {
		t.Fatal(err)
	}
	if n, err := s1.Delete("t", crackdb.Cond{Col: "k", Op: "=", Val: 500}); err != nil || n != 1 {
		t.Fatalf("delete of key 500: %d rows, %v", n, err)
	}
	// Crash: no shutdown, no WAL close. (The WAL is fsynced per append,
	// so simply abandoning the handles models SIGKILL.)

	s2, info2, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Recovered {
		t.Fatal("reboot found no snapshot")
	}
	if info2.Replayed != 2 {
		t.Fatalf("reboot replayed %d records, want 2 (insert + delete)", info2.Replayed)
	}
	n, err := s2.NumRows("t")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rows1) + len(rows2) - 1; n != want {
		t.Fatalf("recovered %d rows, want %d", n, want)
	}
	for _, probe := range []struct {
		key  int64
		want int
	}{{1, 1}, {500, 0}, {900, 1}, {42, 1}, {777, 1}, {43, 0}} {
		got, err := s2.CountWhere("t", crackdb.Cond{Col: "k", Op: "=", Val: probe.key})
		if err != nil {
			t.Fatal(err)
		}
		if got != probe.want {
			t.Fatalf("key %d: count %d, want %d", probe.key, got, probe.want)
		}
	}
	// The recovered store checkpoints again cleanly, and a third boot
	// needs no replay.
	if _, err := s2.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s3, info3, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info3.Recovered || info3.Replayed != 0 {
		t.Fatalf("third boot %+v, want recovered with 0 replayed", info3)
	}
	if n3, _ := s3.NumRows("t"); n3 != len(rows1)+len(rows2)-1 {
		t.Fatalf("third boot holds %d rows", n3)
	}
	if err := s3.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableTapestryReplay: a tapestry load replays from its generator
// parameters, so a reboot reproduces the exact permutation.
func TestDurableTapestryReplay(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 2, Kind: shard.Hash}
	s1, _, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.LoadTapestry("w", 2000, 2, 9); err != nil {
		t.Fatal(err)
	}
	if err := s1.InsertRows("w", [][]int64{{5000, 5000}}); err != nil {
		t.Fatal(err)
	}
	s2, info, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (tapestry + insert)", info.Replayed)
	}
	// The permutation property: every key in 1..2000 exactly once.
	for _, k := range []int64{1, 1000, 2000, 5000} {
		got, err := s2.CountWhere("w", crackdb.Cond{Col: "c0", Op: "=", Val: k})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("key %d: count %d, want 1", k, got)
		}
	}
	total, err := s2.NumRows("w")
	if err != nil {
		t.Fatal(err)
	}
	if total != 2001 {
		t.Fatalf("recovered %d rows, want 2001", total)
	}
	s2.CloseWAL()
}

// TestWALReplayTruncatedEveryOffset is the store-level prefix-consistency
// property, on the one durability path there is — a one-shard router: a
// store rebooted from a WAL cut at any byte offset must hold exactly the
// insert batches whose records survived whole, never a partial batch.
func TestWALReplayTruncatedEveryOffset(t *testing.T) {
	opts := shard.Options{Shards: 1}
	srcDir := t.TempDir()
	src, _, err := shard.OpenDurable(srcDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CreateTable("t", "k"); err != nil {
		t.Fatal(err)
	}
	batches := [][][]int64{
		{{1}, {2}, {3}},
		{{10}, {11}},
		{{20}, {21}, {22}, {23}},
		{{30}},
	}
	for _, b := range batches {
		if err := src.InsertRows("t", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(srcDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, info, err := shard.OpenDurable(dir, opts)
		if err != nil {
			if cut < 13 { // shorter than the header: corrupt, acceptable refusal
				continue
			}
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if info.Replayed > 0 {
			// The recovered store must hold a whole-batch prefix: its row
			// count is exactly the sum of the first Replayed-1 batches (the
			// first record is the create), never a partial batch. With not
			// even the create surviving, an empty store is a valid prefix.
			got, err := s.NumRows("t")
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			want := 0
			for _, b := range batches[:info.Replayed-1] {
				want += len(b)
			}
			if got != want {
				t.Fatalf("cut at %d: recovered %d rows after %d records, want %d — a torn batch leaked",
					cut, got, info.Replayed, want)
			}
		}
		if err := s.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteReplay: a logical delete is logged once at the router, and a
// reboot that replays the log — inserts, the delete, an insert back into
// the deleted range — reproduces the live set exactly.
func TestDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 1}
	live, _, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.CreateTable("t", "a", "b"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	if err := live.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	n, err := live.Delete("t", crackdb.Cond{Col: "a", Op: ">=", Val: 100}, crackdb.Cond{Col: "a", Op: "<", Val: 200})
	if err != nil || n != 100 {
		t.Fatalf("delete removed %d rows (%v), want 100", n, err)
	}
	if err := live.InsertRows("t", [][]int64{{150, 3}}); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the handles, reboot from the log alone.
	re, info, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if info.Recovered || info.Replayed != 4 {
		t.Fatalf("boot %+v, want 4 records replayed over no checkpoint", info)
	}
	for name, s := range map[string]*shard.Store{"live": live, "replayed": re} {
		if got, _ := s.NumRows("t"); got != 401 {
			t.Fatalf("%s: NumRows = %d, want 401", name, got)
		}
	}
	all := []crackdb.Cond{{Col: "a", Op: ">=", Val: 0}}
	ra, err := live.SelectWhere("t", all...)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := re.SelectWhere("t", all...)
	if err != nil {
		t.Fatal(err)
	}
	rowsA, err := ra.Rows("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	rowsB, err := rb.Rows("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Fatal("replayed store diverges from the live one")
	}
}

// TestReplayedDeleteCracksUnderDefault: a replayed DELETE cracks its
// driving column before the booting process sets any strategy, so the
// column cracks under New's default whether a checkpoint precedes the
// DELETE or the boot replays the log alone — never under the strategy
// the previous process ran.
func TestReplayedDeleteCracksUnderDefault(t *testing.T) {
	for _, boot := range []string{"checkpoint", "wal-only"} {
		t.Run(boot, func(t *testing.T) {
			dir := t.TempDir()
			opts := shard.Options{Shards: 2}
			live, _, err := shard.OpenDurable(dir, opts)
			mustExec(t, err)
			mustExec(t, live.SetCrackStrategy("ddr", 7))
			mustExec(t, live.CreateTable("t", "a", "b"))
			rows := make([][]int64, 500)
			for i := range rows {
				rows[i] = []int64{int64(i), int64(i % 7)}
			}
			mustExec(t, live.InsertRows("t", rows))
			if boot == "checkpoint" {
				if mode, err := live.Checkpoint(true); err != nil || mode != "full" {
					t.Fatalf("full checkpoint: mode %q err %v", mode, err)
				}
			}
			_, err = live.Delete("t", crackdb.Cond{Col: "a", Op: ">=", Val: 100}, crackdb.Cond{Col: "a", Op: "<", Val: 200})
			mustExec(t, err)
			mustExec(t, live.CloseWAL())

			re, _, err := shard.OpenDurable(dir, opts)
			mustExec(t, err)
			defer re.CloseWAL()
			stats, err := re.ShardStats("t", "a")
			mustExec(t, err)
			for i, st := range stats {
				if st.Strategy != "standard" {
					t.Fatalf("shard %d: the replayed DELETE cracked t.a under %q, want standard", i, st.Strategy)
				}
			}
		})
	}
}

// TestRestartForgetsTunerPosture: nothing of the tuner outlives its
// process. A column the primary's operator pinned to ddr reopens under
// ddr, which its own image record carries, but a re-enabled tuner
// neither counts that flip nor keeps the pin — after a reboot of the
// same data dir and after a follower's install of the primary's chain
// alike, since pins are never replicated.
func TestRestartForgetsTunerPosture(t *testing.T) {
	opts := shard.Options{Shards: 2}
	pDir := t.TempDir()
	p, _, err := shard.OpenDurable(pDir, opts)
	mustExec(t, err)
	p.EnableAutotune(tuner.Config{})
	mustExec(t, p.CreateTable("t", "k", "v"))
	rows := make([][]int64, 2000)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 13)}
	}
	mustExec(t, p.InsertRows("t", rows))
	mustExec(t, p.ForceStrategy("t", "k", "ddr"))
	if mode, err := p.Checkpoint(true); err != nil || mode != "full" {
		t.Fatalf("full checkpoint: mode %q err %v", mode, err)
	}
	m, err := p.ReplManifest()
	mustExec(t, err)
	mustExec(t, p.CloseWAL())

	fDir := t.TempDir()
	staging := filepath.Join(fDir, "store.repl")
	mustExec(t, os.Mkdir(staging, 0o755))
	for _, sf := range m.Files {
		copyFiles(t, staging, filepath.Join(pDir, sf.Path))
	}
	mustExec(t, shard.InstallSnapshot(fDir, staging, m))

	for _, boot := range []struct{ name, dir string }{{"reboot", pDir}, {"follower", fDir}} {
		t.Run(boot.name, func(t *testing.T) {
			s, _, err := shard.OpenDurable(boot.dir, opts)
			mustExec(t, err)
			defer s.CloseWAL()
			s.EnableAutotune(tuner.Config{})
			n, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: 100}, crackdb.Cond{Col: "k", Op: "<", Val: 900})
			mustExec(t, err)
			if n != 800 {
				t.Fatalf("count %d, want 800", n)
			}
			decs := s.TuneDecisions()
			if len(decs) != opts.Shards {
				t.Fatalf("%d decisions, want one per shard: %+v", len(decs), decs)
			}
			for _, d := range decs {
				if d.Table != "t" || d.Column != "k" || d.Strategy != "ddr" || d.Forced || d.Flips != 0 {
					t.Fatalf("shard %d reopened as %+v, want t.k on ddr, not forced, 0 flips", d.Shard, d.Decision)
				}
			}
		})
	}
}

// TestReplReadFileRefusesForeignPaths: only files the current chain lists
// are served — not the log, not the boot counter, not residue beside the
// chain — while a listed file is.
func TestReplReadFileRefusesForeignPaths(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	defer s.CloseWAL()
	m, err := s.ReplManifest()
	mustExec(t, err)
	residue := "ckpt-999999-0.crk"
	mustExec(t, os.WriteFile(filepath.Join(dir, residue), []byte("residue"), 0o644))
	for _, p := range []string{"wal.log", "boots", residue, "../" + filepath.Base(dir) + "/wal.log"} {
		if _, err := s.ReplReadFile(m.Seq, p, 0, 16); err == nil || !strings.Contains(err.Error(), "outside the checkpoint image") {
			t.Fatalf("path %q: want a refusal, got %v", p, err)
		}
	}
	if chunk, err := s.ReplReadFile(m.Seq, m.Files[0].Path, 0, 16); err != nil || len(chunk) == 0 {
		t.Fatalf("listed file %s: %d bytes, %v", m.Files[0].Path, len(chunk), err)
	}
}

// TestReplManifestReadsNoFile: the replication listing comes from the
// manifests in memory. With a shard image gone from disk after the
// checkpoint, it still names every file with the size and CRC-32C the
// checkpoint recorded.
func TestReplManifestReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	defer s.CloseWAL()
	before, err := s.ReplManifest()
	mustExec(t, err)
	if want := 1 + rangeOpts().Shards; len(before.Files) != want {
		t.Fatalf("a base of %d shards lists %d files, want %d", rangeOpts().Shards, len(before.Files), want)
	}
	mustExec(t, os.Remove(elements(t, dir)[0].files[0]))
	after, err := s.ReplManifest()
	mustExec(t, err)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("listing changed with the disk:\nbefore %+v\nafter  %+v", before, after)
	}
}

// tree lists every path under dir with its size, -1 for a directory.
func tree(t testing.TB, dir string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	mustExec(t, filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			out[path] = -1
			return err
		}
		info, err := d.Info()
		out[path] = info.Size()
		return err
	}))
	return out
}

// TestOldLayoutRefused: a data dir in the layout before the flat one —
// its element directories store/ and delta-NNNNNN/, or the store.old and
// .saving-* traces of its directory swap — holds nothing this build
// reads. Without a chain beside it the boot is refused, naming the last
// build that upgrades it, and the directory is left as it was: no log,
// no boot counter, nothing deleted.
func TestOldLayoutRefused(t *testing.T) {
	for _, old := range []string{"store/shard.json", "delta-000001/shard.json", "store.old/shard.json", ".saving-x/shard.json"} {
		t.Run(filepath.Dir(old), func(t *testing.T) {
			dir := t.TempDir()
			mustExec(t, os.MkdirAll(filepath.Join(dir, filepath.Dir(old)), 0o755))
			mustExec(t, os.WriteFile(filepath.Join(dir, old), []byte(`{"version":2,"base":true}`), 0o644))
			before := tree(t, dir)
			if _, _, err := shard.OpenDurable(dir, rangeOpts()); err == nil || !strings.Contains(err.Error(), "66b2ed8") {
				t.Fatalf("want a refusal naming the upgrading build, got %v", err)
			}
			if after := tree(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused boot changed the data dir:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestOldLayoutBesideChainIsResidue: beside a chain, an old-layout
// directory is residue — the chain boots, answers exactly, and the
// directory is deleted. A staging dir a crashed follower bootstrap left
// is neither: a dir holding only that boots cold.
func TestOldLayoutBesideChainIsResidue(t *testing.T) {
	dir := t.TempDir()
	mustExec(t, seedDurable(t, dir).CloseWAL())
	mustExec(t, os.MkdirAll(filepath.Join(dir, "store"), 0o755))
	mustExec(t, os.WriteFile(filepath.Join(dir, "store", "shard.json"), []byte(`{"version":2,"base":true}`), 0o644))
	s, info, err := shard.OpenDurable(dir, rangeOpts())
	mustExec(t, err)
	defer s.CloseWAL()
	n, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: 0}, crackdb.Cond{Col: "k", Op: "<", Val: 8000})
	if err != nil || !info.Recovered || n != 8000 {
		t.Fatalf("booted %+v, counted %d rows (%v); want the chain's 8000", info, n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Fatalf("store/ survived a successful boot (%v)", err)
	}

	staged := t.TempDir()
	mustExec(t, os.MkdirAll(filepath.Join(staged, "store.repl"), 0o755))
	mustExec(t, os.WriteFile(filepath.Join(staged, "store.repl", "ckpt-000001.json"), []byte("{}"), 0o644))
	cold, info, err := shard.OpenDurable(staged, rangeOpts())
	mustExec(t, err)
	defer cold.CloseWAL()
	if info.Recovered || len(cold.Tables()) != 0 {
		t.Fatalf("a dir holding only a staging dir booted %+v with tables %v, want cold", info, cold.Tables())
	}
}

// TestInstallSnapshot: a staged copy of a primary's chain replaces a
// follower's own chain and log — numbers that collide included — and
// boots to the primary's answers with nothing replayed and nothing of
// the old state left; a manifest naming anything but chain files is
// refused before the data dir is touched.
func TestInstallSnapshot(t *testing.T) {
	pDir := t.TempDir()
	p := seedDurable(t, pDir)
	defer p.CloseWAL()
	mustExec(t, p.InsertRows("t", [][]int64{{10, 1}, {20, 2}}))
	if mode, err := p.Checkpoint(false); err != nil || mode != "delta" {
		t.Fatalf("delta: mode %q err %v", mode, err)
	}
	m, err := p.ReplManifest()
	mustExec(t, err)

	fDir := t.TempDir()
	f := seedDurable(t, fDir) // element 1, as the primary's base
	mustExec(t, f.InsertRows("t", [][]int64{{30, 3}}))
	mustExec(t, f.CloseWAL()) // the insert lives in the follower's log only
	staging := filepath.Join(fDir, "store.repl")
	mustExec(t, os.Mkdir(staging, 0o755))
	for _, sf := range m.Files {
		copyFiles(t, staging, filepath.Join(pDir, sf.Path))
	}

	before := tree(t, fDir)
	for _, bad := range []string{"../escaped", "wal.log", "boots", "ckpt-000002.json.tmp"} {
		foreign := shard.SnapshotManifest{Seq: m.Seq, Files: append([]shard.SnapshotFile{{Path: bad}}, m.Files...)}
		if err := shard.InstallSnapshot(fDir, staging, foreign); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("%q: want a refusal naming it, got %v", bad, err)
		}
		if after := tree(t, fDir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%q: a refused install changed the data dir", bad)
		}
	}

	mustExec(t, shard.InstallSnapshot(fDir, staging, m))
	var want []string
	for _, sf := range m.Files {
		want = append(want, filepath.Join(fDir, sf.Path))
	}
	if got, err := filepath.Glob(filepath.Join(fDir, "ckpt-*")); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("installed chain %v, want %v (%v)", got, want, err)
	}
	s, info, err := shard.OpenDurable(fDir, rangeOpts())
	mustExec(t, err)
	defer s.CloseWAL()
	if !info.Recovered || info.ChainDeltas != 1 || info.Replayed != 0 || info.AppliedSeq != m.Seq {
		t.Fatalf("booted %+v from the installed chain, want a base and a delta at seq %d", info, m.Seq)
	}
	for _, r := range [][2]int64{{0, 8000}, {10, 11}, {30, 31}} {
		a, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: r[0]}, crackdb.Cond{Col: "k", Op: "<", Val: r[1]})
		mustExec(t, err)
		b, err := p.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: r[0]}, crackdb.Cond{Col: "k", Op: "<", Val: r[1]})
		mustExec(t, err)
		if a != b {
			t.Fatalf("count [%d, %d): follower %d, primary %d", r[0], r[1], a, b)
		}
	}
}

// TestNameBoundSurvivesCheckpoint: a table or column name one byte over
// durable.MaxName is refused before anything is logged, and a name of
// exactly MaxName survives a full checkpoint and a reboot from it. A
// longer name used to be logged and replayed, and then refused by the
// image reader after the next checkpoint — a data dir that would not
// boot.
func TestNameBoundSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 2, Kind: shard.Hash}
	s, _, err := shard.OpenDurable(dir, opts)
	mustExec(t, err)
	long := strings.Repeat("x", durable.MaxName+1)
	for name, create := range map[string]func() error{
		"table":    func() error { return s.CreateTable(long, "a") },
		"column":   func() error { return s.CreateTable("t", "a", long) },
		"tapestry": func() error { return s.LoadTapestry(long, 10, 1, 1) },
	} {
		if err := create(); err == nil || !strings.HasPrefix(err.Error(), "crackdb: ") ||
			!strings.Contains(err.Error(), " name of 1048577 bytes exceeds 1048576") {
			t.Fatalf("%s name over the bound: err %v", name, err)
		}
	}
	if st := s.WAL().Status(); st.Records != 0 {
		t.Fatalf("refused creates logged %d records", st.Records)
	}
	name, col := long[:durable.MaxName], strings.Repeat("y", durable.MaxName)
	mustExec(t, s.CreateTable(name, col, "b"))
	mustExec(t, s.InsertRows(name, [][]int64{{1, 10}, {2, 20}, {3, 30}}))
	if mode, err := s.Checkpoint(true); err != nil || mode != "full" {
		t.Fatalf("full checkpoint: mode %q err %v", mode, err)
	}
	mustExec(t, s.CloseWAL())

	re, info, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("reboot after a checkpoint of a %d-byte name: %v", durable.MaxName, err)
	}
	defer re.CloseWAL()
	if !info.Recovered || info.Replayed != 0 {
		t.Fatalf("reboot did not come from the checkpoint alone: %+v", info)
	}
	n, err := re.CountWhere(name, crackdb.Cond{Col: col, Op: ">=", Val: 2})
	if err != nil || n != 2 {
		t.Fatalf("count after reboot = %d, %v; want 2", n, err)
	}
}
