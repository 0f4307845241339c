package shard_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/shard"
	"crackdb/internal/strategy"
)

// rangeOpts range-partitions 8 shards. seedDurable's first batch holds
// every key of [0, 8000) once, so the bounds it samples fall on the
// multiples of 1000 and a test can target one shard by key range.
func rangeOpts() shard.Options {
	return shard.Options{Shards: 8, Kind: shard.Range}
}

func mustExec(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// seedDurable boots a durable store, loads a cracked table across all
// shards, and writes the first full checkpoint.
func seedDurable(t *testing.T, dir string) *shard.Store {
	t.Helper()
	s, _, err := shard.OpenDurable(dir, rangeOpts())
	mustExec(t, err)
	mustExec(t, s.CreateTable("t", "k", "v"))
	rows := make([][]int64, 8000)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 97)}
	}
	mustExec(t, s.InsertRows("t", rows))
	for lo := int64(0); lo < 7500; lo += 300 {
		_, err := s.CountWhere("t",
			crackdb.Cond{Col: "k", Op: ">=", Val: lo},
			crackdb.Cond{Col: "k", Op: "<", Val: lo + 250})
		mustExec(t, err)
	}
	if mode, err := s.Checkpoint(true); err != nil || mode != "full" {
		t.Fatalf("full checkpoint: mode %q err %v", mode, err)
	}
	return s
}

// element is one chain element on disk: its manifest and the shard
// images its number carries.
type element struct {
	manifest string
	files    []string
}

// elements lists the chain elements in a data dir, oldest first.
func elements(t testing.TB, dataDir string) []element {
	t.Helper()
	manifests, err := filepath.Glob(filepath.Join(dataDir, "ckpt-*.json"))
	mustExec(t, err)
	var elems []element
	for _, m := range manifests {
		files, err := filepath.Glob(strings.TrimSuffix(m, ".json") + "-*.crk")
		mustExec(t, err)
		elems = append(elems, element{manifest: m, files: files})
	}
	return elems
}

// bytes sums an element's files, manifest included.
func (e element) bytes(t testing.TB) int64 {
	t.Helper()
	var total int64
	for _, path := range append([]string{e.manifest}, e.files...) {
		info, err := os.Stat(path)
		mustExec(t, err)
		total += info.Size()
	}
	return total
}

// copyFiles copies the named files into dir.
func copyFiles(t testing.TB, dir string, paths ...string) {
	t.Helper()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		mustExec(t, err)
		mustExec(t, os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644))
	}
}

// copyTree copies a data directory, files and subdirectories.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	mustExec(t, filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	}))
}

// TestDeltaCheckpointSkipsCleanShards: after writes land on one shard
// only, a delta checkpoint must carry exactly that shard — and its
// bytes must be a small fraction of the full image's.
func TestDeltaCheckpointSkipsCleanShards(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	defer s.CloseWAL()
	fullBytes := elements(t, dir)[0].bytes(t)

	// Keys < 1000 route to shard 0 under the sampled 8-way range split.
	rows := make([][]int64, 50)
	for i := range rows {
		rows[i] = []int64{int64(i % 1000), int64(i)}
	}
	mustExec(t, s.InsertRows("t", rows))

	mode, err := s.Checkpoint(false)
	mustExec(t, err)
	if mode != "delta" {
		t.Fatalf("checkpoint escalated to %q", mode)
	}
	elems := elements(t, dir)
	if len(elems) != 2 {
		t.Fatalf("want a base and 1 delta element, found %v", elems)
	}
	delta := elems[1]
	if len(delta.files) != 1 || !strings.HasSuffix(delta.files[0], "-0.crk") {
		t.Fatalf("delta carries %v, want only shard 0's image", delta.files)
	}
	deltaBytes := delta.bytes(t)
	if deltaBytes*5 > fullBytes {
		t.Fatalf("delta wrote %d bytes, more than 1/5 of the %d-byte full image", deltaBytes, fullBytes)
	}
}

// TestDeltaRebootMatchesFullReboot: rebooting from base + chain must
// answer exactly like rebooting from a full image taken at the same
// instant, across all strategies.
func TestDeltaRebootMatchesFullReboot(t *testing.T) {
	for _, strat := range strategy.Names() {
		t.Run(strat, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := shard.OpenDurable(dir, rangeOpts())
			mustExec(t, err)
			if strat != "standard" {
				mustExec(t, s.SetCrackStrategy(strat, 42))
			}
			mustExec(t, s.CreateTable("t", "k", "v"))
			rows := make([][]int64, 6000)
			for i := range rows {
				rows[i] = []int64{int64(i * 7 % 8000), int64(i % 101)}
			}
			mustExec(t, s.InsertRows("t", rows))
			// crack runs range counts inside one shard's key range — so a
			// delta round dirties exactly the shard it targets (a query
			// that spanned shards would crack, and so dirty, all of them).
			crack := func(base, seed int64) {
				for i := int64(0); i < 20; i++ {
					lo := base + (seed*131+i*89)%700
					_, err := s.CountWhere("t",
						crackdb.Cond{Col: "k", Op: ">=", Val: lo},
						crackdb.Cond{Col: "k", Op: "<", Val: lo + 150})
					mustExec(t, err)
				}
			}
			for sh := int64(0); sh < 8; sh++ {
				crack(sh*1000, 1)
			}
			if _, err := s.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
			// Two delta rounds, each touching a different single shard.
			mustExec(t, s.InsertRows("t", [][]int64{{100, 1}, {150, 2}}))
			crack(0, 2)
			if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
				t.Fatalf("delta 1: mode %q err %v", mode, err)
			}
			mustExec(t, s.InsertRows("t", [][]int64{{6100, 1}, {6150, 2}}))
			crack(6000, 3)
			if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
				t.Fatalf("delta 2: mode %q err %v", mode, err)
			}
			// A third round on a converged shard: a trickle of small batches
			// between counts, so the image this round writes is the work of
			// folds that shifted cuts in place — the state a long-running
			// store actually checkpoints.
			trickle := func(st *shard.Store, seed int64) {
				for b := int64(0); b < 12; b++ {
					rows := make([][]int64, 16)
					for i := range rows {
						rows[i] = []int64{3000 + (seed*977+b*61+int64(i)*53)%1000, b}
					}
					mustExec(t, st.InsertRows("t", rows))
					lo := 3000 + (seed*131+b*89)%700
					_, err := st.CountWhere("t",
						crackdb.Cond{Col: "k", Op: ">=", Val: lo},
						crackdb.Cond{Col: "k", Op: "<", Val: lo + 150})
					mustExec(t, err)
				}
			}
			trickle(s, 4)
			if st, err := s.Shard(3).Stats("t", "k"); err != nil || st.RippleFolds == 0 || st.RebuildFolds != 0 {
				t.Fatalf("trickle on a converged shard: %+v, %v — want ripple folds only", st, err)
			}
			if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
				t.Fatalf("delta 3: mode %q err %v", mode, err)
			}
			// Set the chain aside, then have the live store fold the same
			// state into a full image, for the oracle.
			chainDir := filepath.Join(t.TempDir(), "chain")
			copyTree(t, dir, chainDir)
			if mode, err := s.Checkpoint(true); err != nil || mode != "full" {
				t.Fatalf("oracle image: mode %q err %v", mode, err)
			}
			mustExec(t, s.CloseWAL())

			chainStore, info, err := shard.OpenDurable(chainDir, rangeOpts())
			mustExec(t, err)
			defer chainStore.CloseWAL()
			if !info.Recovered || info.ChainDeltas != 3 {
				t.Fatalf("boot did not walk the chain: %+v", info)
			}
			oracle, info, err := shard.OpenDurable(dir, rangeOpts())
			mustExec(t, err)
			defer oracle.CloseWAL()
			if !info.Recovered || info.ChainDeltas != 0 || info.Replayed != 0 {
				t.Fatalf("oracle did not boot from the full image alone: %+v", info)
			}

			sameAnswers := func(why string) {
				t.Helper()
				for i := int64(0); i < 40; i++ {
					lo := (i * 173) % 7500
					conds := []crackdb.Cond{
						{Col: "k", Op: ">=", Val: lo},
						{Col: "k", Op: "<", Val: lo + 300},
					}
					a, err := chainStore.CountWhere("t", conds...)
					mustExec(t, err)
					b, err := oracle.CountWhere("t", conds...)
					mustExec(t, err)
					if a != b {
						t.Fatalf("%s, query %d: chain reboot %d, full-image reboot %d", why, i, a, b)
					}
				}
			}
			sameAnswers("after reboot")
			// Physical crack state matches shard for shard.
			for i := 0; i < chainStore.ShardCount(); i++ {
				sa, errA := chainStore.Shard(i).Stats("t", "k")
				sb, errB := oracle.Shard(i).Stats("t", "k")
				if (errA == nil) != (errB == nil) {
					t.Fatalf("shard %d stats availability diverges: %v vs %v", i, errA, errB)
				}
				if errA == nil && sa.Pieces != sb.Pieces {
					t.Fatalf("shard %d piece counts diverge: chain %d, full %d", i, sa.Pieces, sb.Pieces)
				}
			}
			// Both reboots carry a real index now: the same trickle folds
			// into each without dropping it, and they keep agreeing.
			trickle(chainStore, 5)
			trickle(oracle, 5)
			sameAnswers("after a trickle on the rebooted stores")
			for _, st := range []*shard.Store{chainStore, oracle} {
				if cs, err := st.Shard(3).Stats("t", "k"); err != nil || cs.RippleFolds == 0 || cs.RebuildFolds != 0 {
					t.Fatalf("trickle on a rebooted shard: %+v, %v — want ripple folds only", cs, err)
				}
			}
		})
	}
}

// TestDeltaChainCompaction: the chain folds back into a full image once
// it reaches the element bound, and the element dirs are gone.
func TestDeltaChainCompaction(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	defer s.CloseWAL()

	sawDelta := 0
	for i := 0; i < 12; i++ {
		mustExec(t, s.InsertRows("t", [][]int64{{int64(i * 600 % 8000), int64(i)}}))
		mode, err := s.Checkpoint(false)
		mustExec(t, err)
		if mode == "delta" {
			sawDelta++
		}
	}
	if sawDelta == 0 {
		t.Fatal("no delta checkpoints ran before compaction")
	}
	if sawDelta == 12 {
		t.Fatal("chain never compacted in 12 rounds")
	}
	// After a compaction the chain restarts from the new base; whatever
	// elements exist now must be fewer than the total delta count.
	if n := len(elements(t, dir)) - 1; n >= sawDelta {
		t.Fatalf("%d delta elements on disk after compaction (saw %d delta checkpoints)", n, sawDelta)
	}
}

// TestBrokenChainRefusesBoot: a chain with a missing middle element, or
// with a shard image swapped for one from another element, must fail
// the next OpenDurable, not silently cold-boot — and the refusal deletes
// nothing.
func TestBrokenChainRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	for _, k := range []int64{10, 20} { // both rows land on shard 0
		mustExec(t, s.InsertRows("t", [][]int64{{k, 1}}))
		if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
			t.Fatalf("delta: mode %q err %v", mode, err)
		}
	}
	mustExec(t, s.CloseWAL())
	elems := elements(t, dir)
	if len(elems) != 3 || len(elems[1].files) != 1 || len(elems[2].files) != 1 {
		t.Fatalf("want a base and 2 one-shard deltas, found %v", elems)
	}

	for name, damage := range map[string]func(dir string){
		"missing middle element": func(dir string) {
			mustExec(t, os.Remove(filepath.Join(dir, filepath.Base(elems[1].manifest))))
		},
		"image from another element": func(dir string) {
			data, err := os.ReadFile(elems[1].files[0])
			mustExec(t, err)
			mustExec(t, os.WriteFile(filepath.Join(dir, filepath.Base(elems[2].files[0])), data, 0o644))
		},
	} {
		t.Run(name, func(t *testing.T) {
			broken := filepath.Join(t.TempDir(), "data")
			copyTree(t, dir, broken)
			damage(broken)
			before, err := os.ReadDir(broken)
			mustExec(t, err)
			if _, _, err := shard.OpenDurable(broken, rangeOpts()); err == nil || !strings.Contains(err.Error(), "chain") {
				t.Fatalf("want chain refusal, got %v", err)
			}
			if after, err := os.ReadDir(broken); err != nil || len(after) != len(before) {
				t.Fatalf("a refused boot changed the data dir: %d entries, was %d (%v)", len(after), len(before), err)
			}
		})
	}
}

// TestSupersededElementsCleaned: what a crash between a full
// checkpoint's commit and its cleanup leaves — an older element,
// here a crack-only delta stamped with the base's own seq, beside a
// manifest torn before its rename and a shard image no manifest names —
// is deleted at the next boot, which succeeds from the base alone. The
// orphan's number stays spent: the next element is a base.
func TestSupersededElementsCleaned(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	crack := func(from int64) {
		for lo := from; lo < from+900; lo += 40 {
			_, err := s.CountWhere("t",
				crackdb.Cond{Col: "k", Op: ">=", Val: lo},
				crackdb.Cond{Col: "k", Op: "<", Val: lo + 25})
			mustExec(t, err)
		}
	}
	crack(0)
	if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
		t.Fatalf("crack-only delta: mode %q err %v", mode, err)
	}
	stale := elements(t, dir)[1]
	aside := t.TempDir()
	copyFiles(t, aside, append([]string{stale.manifest}, stale.files...)...)
	crack(5)
	if mode, err := s.Checkpoint(true); err != nil || mode != "full" {
		t.Fatalf("full: mode %q err %v", mode, err)
	}
	mustExec(t, s.CloseWAL())
	base := elements(t, dir)
	if len(base) != 1 {
		t.Fatalf("the full checkpoint left %v", base)
	}
	// Put the stale delta back as if the cleanup never ran, and add what
	// a crash in the next checkpoint leaves.
	staleFiles, err := filepath.Glob(filepath.Join(aside, "*"))
	mustExec(t, err)
	copyFiles(t, dir, staleFiles...)
	var num int
	_, err = fmt.Sscanf(filepath.Base(base[0].manifest), "ckpt-%d.json", &num)
	mustExec(t, err)
	next := filepath.Join(dir, fmt.Sprintf("ckpt-%06d", num+1))
	mustExec(t, os.WriteFile(next+"-3.crk", []byte("orphan"), 0o644))
	mustExec(t, os.WriteFile(next+".json.tmp", []byte("{torn"), 0o644))

	re, info, err := shard.OpenDurable(dir, rangeOpts())
	mustExec(t, err)
	defer re.CloseWAL()
	if !info.Recovered || info.ChainDeltas != 0 {
		t.Fatalf("boot after cleanup: %+v", info)
	}
	if left, err := filepath.Glob(filepath.Join(dir, "ckpt-*")); err != nil || len(left) != 1+len(base[0].files) {
		t.Fatalf("residue survived boot: %v (%v)", left, err)
	}
	n, err := re.CountWhere("t", crackdb.Cond{Col: "k", Op: ">=", Val: 0}, crackdb.Cond{Col: "k", Op: "<", Val: 8000})
	mustExec(t, err)
	if n != 8000 {
		t.Fatalf("recovered %d rows, want 8000", n)
	}
	mustExec(t, re.InsertRows("t", [][]int64{{10, 1}}))
	if mode, err := re.Checkpoint(false); err != nil || mode != "full" {
		t.Fatalf("checkpoint after a spent number: mode %q err %v, want a base", mode, err)
	}
}

// TestCrackOnlyDeltaSurvivesReboot: a delta checkpoint taken after
// crack-only changes carries the base's own WAL stamp (queries append
// no records), and a later element links to it by checksum. Boot must
// keep that element as part of the live chain — deleting it as
// full-checkpoint residue would break every later link and refuse a
// perfectly healthy restart.
func TestCrackOnlyDeltaSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	// Crack-only round: fresh cut points on shard 0, no WAL traffic, so
	// the element's seq equals the base's applied seq.
	for lo := int64(0); lo < 900; lo += 40 {
		_, err := s.CountWhere("t",
			crackdb.Cond{Col: "k", Op: ">=", Val: lo},
			crackdb.Cond{Col: "k", Op: "<", Val: lo + 25})
		mustExec(t, err)
	}
	if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
		t.Fatalf("crack-only delta: mode %q err %v", mode, err)
	}
	// Second element, this time with WAL traffic, chained to the first.
	mustExec(t, s.InsertRows("t", [][]int64{{10, 1}, {20, 2}}))
	if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
		t.Fatalf("delta 2: mode %q err %v", mode, err)
	}
	mustExec(t, s.CloseWAL())

	re, info, err := shard.OpenDurable(dir, rangeOpts())
	if err != nil {
		t.Fatalf("reboot after a crack-only delta refused: %v", err)
	}
	defer re.CloseWAL()
	if !info.Recovered || info.ChainDeltas != 2 {
		t.Fatalf("boot dropped live chain elements: %+v", info)
	}
	n, err := re.CountWhere("t",
		crackdb.Cond{Col: "k", Op: ">=", Val: 0},
		crackdb.Cond{Col: "k", Op: "<", Val: 8000})
	mustExec(t, err)
	if n != 8002 {
		t.Fatalf("recovered %d rows, want 8002", n)
	}
}

// TestDeltaCheckpointNoop: with no traffic since the last checkpoint, a
// bare checkpoint writes nothing at all and says so — the chain, the
// WAL base and the data directory are left exactly as they were, and a
// reboot still answers exactly.
func TestDeltaCheckpointNoop(t *testing.T) {
	dir := t.TempDir()
	s := seedDurable(t, dir)
	mustExec(t, s.InsertRows("t", [][]int64{{10, 1}}))
	if mode, err := s.Checkpoint(false); err != nil || mode != "delta" {
		t.Fatalf("delta: mode %q err %v", mode, err)
	}
	listing := func() []string {
		t.Helper()
		var names []string
		mustExec(t, filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				names = append(names, fmt.Sprint(path, info.Size(), info.ModTime().UnixNano()))
			}
			return err
		}))
		return names
	}
	before, base := listing(), s.WAL().Status().BaseSeq
	for i := 0; i < 2; i++ {
		if mode, err := s.Checkpoint(false); err != nil || mode != "" {
			t.Fatalf("idle checkpoint %d: mode %q err %v, want nothing written", i, mode, err)
		}
	}
	if got := s.WAL().Status().BaseSeq; got != base {
		t.Fatalf("idle checkpoint rotated the WAL: base %d, was %d", got, base)
	}
	if after := listing(); !slices.Equal(after, before) {
		t.Fatalf("idle checkpoint changed the data dir:\nbefore %v\nafter  %v", before, after)
	}
	mustExec(t, s.CloseWAL())

	re, info, err := shard.OpenDurable(dir, rangeOpts())
	mustExec(t, err)
	defer re.CloseWAL()
	if !info.Recovered || info.ChainDeltas != 1 || info.Replayed != 0 {
		t.Fatalf("reboot after idle checkpoints: %+v, want base + 1 delta, nothing replayed", info)
	}
	n, err := re.CountWhere("t",
		crackdb.Cond{Col: "k", Op: ">=", Val: 0},
		crackdb.Cond{Col: "k", Op: "<", Val: 8000})
	mustExec(t, err)
	if n != 8001 {
		t.Fatalf("recovered %d rows, want 8001", n)
	}
}

// TestPostureRestartCheckpointsNothing: a store's crack strategy is its
// process's, not its image's, so a restart that only sets a new one has
// nothing to checkpoint — no element is written and the WAL is not
// rotated.
func TestPostureRestartCheckpointsNothing(t *testing.T) {
	dir := t.TempDir()
	mustExec(t, seedDurable(t, dir).CloseWAL())
	s, _, err := shard.OpenDurable(dir, rangeOpts())
	mustExec(t, err)
	defer s.CloseWAL()
	mustExec(t, s.SetCrackStrategy("ddr", 11))
	base := s.WAL().Status().BaseSeq
	if mode, err := s.Checkpoint(false); err != nil || mode != "" {
		t.Fatalf("checkpoint after a posture-only restart: mode %q err %v, want nothing written", mode, err)
	}
	if got := s.WAL().Status().BaseSeq; got != base {
		t.Fatalf("posture-only checkpoint rotated the WAL: base %d, was %d", got, base)
	}
}

// TestDeltaBytesBudget: a delta element writes what queries moved, in
// granules, not the columns they moved it in. On a 4-shard hash store of
// 4 × 250 k tapestry rows converged by range counts, a 16-row append and
// the count that folds it write at most 1 % of the full image, and one
// fresh crack writes at most twice the bytes of the pieces it partitions,
// plus one granule per piece end, plus each shard's cut set.
func TestDeltaBytesBudget(t *testing.T) {
	const n = 1_000_000
	dir := t.TempDir()
	s, _, err := shard.OpenDurable(dir, shard.Options{Shards: 4, Kind: shard.Hash})
	mustExec(t, err)
	defer s.CloseWAL()
	mustExec(t, s.LoadTapestry("t", n, 2, 1))
	rng := rand.New(rand.NewSource(5))
	count := func(lo int64) {
		_, err := s.CountWhere("t", crackdb.Cond{Col: "c0", Op: ">=", Val: lo}, crackdb.Cond{Col: "c0", Op: "<=", Val: lo + n/100})
		mustExec(t, err)
	}
	var seen []int64
	for i := 0; i < 1000; i++ {
		seen = append(seen, 1+rng.Int63n(n))
		count(seen[i])
	}
	// elem checkpoints and returns the bytes of the element it wrote.
	elem := func(full bool) int64 {
		t.Helper()
		mode, err := s.Checkpoint(full)
		mustExec(t, err)
		if want := map[bool]string{true: "full", false: "delta"}[full]; mode != want {
			t.Fatalf("checkpoint wrote %q, want %q", mode, want)
		}
		elems := elements(t, dir)
		return elems[len(elems)-1].bytes(t)
	}
	full := elem(true)
	// A full element is its manifest plus one image per shard, directly in
	// the data dir.
	if elems := elements(t, dir); len(elems) != 1 || len(elems[0].files) != 4 {
		t.Fatalf("a full checkpoint of 4 shards left %v, want one manifest and 4 images", elems)
	}
	entries, err := os.ReadDir(dir)
	mustExec(t, err)
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("the data dir holds a subdirectory %s", e.Name())
		}
	}

	rows := make([][]int64, 16)
	for i := range rows {
		rows[i] = []int64{2*n + int64(i), int64(i)} // above every cut: none shifts
	}
	mustExec(t, s.InsertRows("t", rows))
	count(seen[0]) // cut already: only the fold moves anything
	appended := elem(false)
	t.Logf("full image %d bytes; 16-row append and fold %d bytes (%.3f %%)", full, appended, 100*float64(appended)/float64(full))
	if appended*100 > full {
		t.Errorf("a 16-row append wrote a %d-byte delta, more than 1 %% of the %d-byte full image", appended, full)
	}

	before, err := s.ShardStats("t", "c0")
	mustExec(t, err)
	count(1 + rng.Int63n(n))
	after, err := s.ShardStats("t", "c0")
	mustExec(t, err)
	const tuple = 8 + 4      // a value and its OID; no payloads here
	budget := int64(4 << 10) // the manifest, image headers
	var piece int64
	for i := range after {
		m := after[i].TuplesTouched - before[i].TuplesTouched
		ends := 2 * int64(after[i].Cracks-before[i].Cracks)
		piece += m
		budget += 2*m*tuple + ends*core.Granule*tuple + int64(after[i].Pieces-1)*17
	}
	if piece == 0 {
		t.Fatal("the fresh range cracked nothing")
	}
	cracked := elem(false)
	t.Logf("one fresh crack of %d tuples wrote %d bytes, budget %d", piece, cracked, budget)
	if cracked > budget {
		t.Errorf("one fresh crack of %d tuples wrote %d bytes, budget %d", piece, cracked, budget)
	}
}
