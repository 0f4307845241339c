package server

import (
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crackdb/internal/durable"
	"crackdb/internal/shard"
)

// insertRange inserts n rows with keys cycling inside [0, span) — with
// range partitioning that confines the writes (and the dirty marks) to
// the shards owning that key range.
func insertRange(t *testing.T, c *Client, table string, start, n int, span int64) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d)", int64(start+i)%span, start+i)
	}
	if resp, _ := c.Do(b.String()); resp.Err != "" {
		t.Fatalf("insert: %s", resp.Err)
	}
}

func save(t *testing.T, c *Client, mode string) {
	t.Helper()
	cmd := "/save"
	if mode != "" {
		cmd += " " + mode
	}
	if resp, _ := c.Do(cmd); resp.Err != "" {
		t.Fatalf("%s: %s", cmd, resp.Err)
	}
}

// TestFollowerRebootstrapReusesUnchangedFiles: a follower that falls
// behind WAL retention and must bootstrap a second time downloads only
// the sections of the image that changed — the unchanged base shards
// are reused from its previously installed copy, never re-fetched, even
// after a full checkpoint renumbered every file.
func TestFollowerRebootstrapReusesUnchangedFiles(t *testing.T) {
	opts := shard.Options{Shards: 16, Kind: shard.Range}
	pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), opts)
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if resp, _ := pc.Do("CREATE TABLE t (k, v)"); resp.Err != "" {
		t.Fatalf("create: %s", resp.Err)
	}
	// Seed every shard, then checkpoint past retention so a fresh
	// follower is forced onto the snapshot path.
	insertRange(t, pc, "t", 0, 8000, 16000)
	for round := 0; round < 6; round++ {
		insertRange(t, pc, "t", 8000+round*10, 10, 16000)
		save(t, pc, "full")
	}

	fDir := t.TempDir()
	f1, err := OpenFollower(FollowerOptions{Primary: pAddr, DataDir: fDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	d1, r1 := f1.BootstrapBytes()
	if d1 == 0 {
		t.Fatal("first bootstrap into an empty dir downloaded nothing")
	}
	if r1 != 0 {
		t.Fatalf("first bootstrap into an empty dir claims %d reused bytes", r1)
	}
	// Stop without Run: the pull loop never started, so the follower
	// never registered for prune-floor protection — exactly a replica
	// that went silent right after bootstrapping.
	if err := f1.Store().CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on: writes confined to shard 0, checkpointed as
	// deltas, rotating past retention again, then folded into a new base.
	// Shards 1–15 keep their bytes under new names.
	for round := 0; round < 6; round++ {
		insertRange(t, pc, "t", round*30, 30, 500)
		save(t, pc, "")
	}
	save(t, pc, "full")

	f2, err := OpenFollower(FollowerOptions{Primary: pAddr, DataDir: fDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f2.Store().CloseWAL(); err != nil {
			t.Error(err)
		}
	}()
	d2, r2 := f2.BootstrapBytes()
	if d2 == 0 {
		t.Fatal("re-bootstrap downloaded nothing — it should have fetched the new chain elements")
	}
	if r2 == 0 {
		t.Fatal("re-bootstrap reused nothing — the unchanged base was downloaded again")
	}
	m, err := pStore.ReplManifest()
	if err != nil {
		t.Fatal(err)
	}
	var unchanged int64 // shards 1–15
	for _, sf := range m.Files {
		if strings.HasSuffix(sf.Path, ".crk") && !strings.HasSuffix(sf.Path, "-0.crk") {
			unchanged += sf.Size
		}
	}
	if r2 < unchanged {
		t.Fatalf("re-bootstrap reused %d bytes, less than the %d bytes of shards 1–15", r2, unchanged)
	}
	// And the re-bootstrapped follower answers like the primary.
	want, err := pStore.NumRows("t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.Store().NumRows("t")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("follower has %d rows after re-bootstrap, primary %d", got, want)
	}
}

// TestBootstrapResumeAcrossCheckpoint pins the superseded-snapshot
// bug: a checkpoint landing between manifest fetch and download must
// not restart the bootstrap from zero. Files already staged and still
// checksum-matched by the new manifest are kept; only the new chain
// element is fetched.
func TestBootstrapResumeAcrossCheckpoint(t *testing.T) {
	opts := shard.Options{Shards: 4, Kind: shard.Range}
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), opts)
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if resp, _ := pc.Do("CREATE TABLE t (k, v)"); resp.Err != "" {
		t.Fatalf("create: %s", resp.Err)
	}
	insertRange(t, pc, "t", 0, 3000, 4000)
	save(t, pc, "full")

	// A bootstrap in progress: the full image is staged but not yet
	// installed when the primary checkpoints again.
	m1, err := fetchManifest(pc)
	if err != nil {
		t.Fatal(err)
	}
	fDir := t.TempDir()
	staging := filepath.Join(fDir, "store.repl")
	var st1 bootStats
	if _, err := stageImage(pc, m1, staging, fDir, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.downloaded == 0 {
		t.Fatal("staging an empty dir downloaded nothing")
	}

	insertRange(t, pc, "t", 3000, 40, 1000) // shard 0 only
	save(t, pc, "")                         // image superseded mid-bootstrap

	// Chunk reads against the stale manifest are fenced off...
	var stStale bootStats
	dir2 := t.TempDir()
	if _, err := stageImage(pc, m1, filepath.Join(dir2, "store.repl"), dir2, &stStale); err == nil ||
		!strings.Contains(err.Error(), "superseded") {
		t.Fatalf("stale-seq fetch: want superseded refusal, got %v", err)
	}

	// ...and the retry resumes: the staged base files still match the
	// new manifest and are kept; only the delta element is downloaded.
	store, st2, err := bootstrapFromSnapshot(pc, fDir, opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store.CloseWAL(); err != nil {
			t.Error(err)
		}
	}()
	if st2.reused == 0 {
		t.Fatal("resume threw away the staged files and started from zero")
	}
	if st2.downloaded == 0 {
		t.Fatal("resume fetched nothing — the new chain element must be downloaded")
	}
	if st2.downloaded >= st1.downloaded {
		t.Fatalf("resume downloaded %d bytes, initial staging %d — nothing was saved by resuming",
			st2.downloaded, st1.downloaded)
	}
	n, err := store.NumRows("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3040 {
		t.Fatalf("bootstrapped store has %d rows, want 3040", n)
	}
}

// TestStageRefusesForeignPaths: a primary's manifest names files the
// follower writes, so a path that is not a chain-file name — one that
// climbs out of the staging dir, nests, is absolute, or names the log —
// or a negative size is refused before anything is written, even when a
// local file holds the listed contents and no byte would cross the wire.
func TestStageRefusesForeignPaths(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	staging := filepath.Join(dataDir, "store.repl")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	local := []byte("an image the follower already holds")
	if err := os.WriteFile(filepath.Join(dataDir, "ckpt-000001-0.crk"), local, 0o644); err != nil {
		t.Fatal(err)
	}
	size, crc := int64(len(local)), crc32.Checksum(local, durable.SnapshotCRC)
	// listing maps every path under root outside staging to its size, -1
	// for a directory.
	listing := func() map[string]int64 {
		t.Helper()
		out := make(map[string]int64)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			switch {
			case path == staging:
				return filepath.SkipDir
			case d.IsDir():
				out[path] = -1
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			out[path] = info.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := listing()
	for _, sf := range []shard.SnapshotFile{
		{Path: "../../escaped", Size: size, Crc: crc},
		{Path: "a/b", Size: size, Crc: crc},
		{Path: filepath.Join(root, "abs"), Size: size, Crc: crc},
		{Path: "wal.log", Size: size, Crc: crc},
		{Path: "ckpt-000002-0.crk", Size: -1},
	} {
		m := shard.SnapshotManifest{Seq: 1, Files: []shard.SnapshotFile{sf}}
		var st bootStats
		if _, err := stageImage(nil, m, staging, dataDir, &st); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", sf.Path)) {
			t.Errorf("%q: want a refusal naming the path, got %v", sf.Path, err)
		}
		if after := listing(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%q: staging wrote outside the staging dir: %v, was %v", sf.Path, after, before)
		}
	}
}
