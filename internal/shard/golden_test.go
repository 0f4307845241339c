package shard_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"crackdb/internal/shard"
)

// testdata/v4chain and testdata/v5chain are data directories written by
// builds that saved store images as version 4 and version 5 (see
// CHANGES.md for the commits and the programs): two hash shards, a base
// and one delta. Table t (k, a, b, c) carries payload vectors a and b on
// k, tombstones, pending inserts on c and an mdd1r column b; table u is
// a tapestry, which v4chain holds in the base only and v5chain cracks
// again in the delta. testdata/v4chain-answers.json and
// v5chain-answers.json hold what each build answered after a reboot of
// its directory.

type goldenQuery struct {
	Table string    `json:"table"`
	Col   string    `json:"col"`
	Lo    int64     `json:"lo"`
	Hi    int64     `json:"hi"`
	N     int       `json:"n"`
	Cols  []string  `json:"cols"`
	Rows  [][]int64 `json:"rows"`
}

type goldenScript struct {
	Project goldenQuery   `json:"project"`
	Counts  []goldenQuery `json:"counts"`
	Rows    []goldenQuery `json:"rows"`
}

func sortedRows(rows [][]int64) [][]int64 {
	slices.SortFunc(rows, func(a, b []int64) int { return slices.Compare(a, b) })
	return rows
}

// goldenProject serves the script's projection shard by shard through
// Select + Rows, the path that reads payload vectors, and requires every
// shard to answer from the vectors the image carried: nothing gathered,
// nothing fetched through the base.
func goldenProject(t *testing.T, s *shard.Store, q goldenQuery) {
	t.Helper()
	var got [][]int64
	for i := 0; i < s.ShardCount(); i++ {
		sh := s.Shard(i)
		res, err := sh.Select(q.Table, q.Col, q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Rows(q.Cols...)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
		fetched, err := sh.FetchedTuples(q.Table)
		if err != nil {
			t.Fatal(err)
		}
		if st := sh.SidewaysStats(); st.Builds != 0 || st.Pays != 2 || fetched != 0 {
			t.Fatalf("shard %d projected with %+v and %d tuples fetched; want 0 builds, 2 live vectors, 0 fetched", i, st, fetched)
		}
	}
	if !reflect.DeepEqual(sortedRows(got), q.Rows) {
		t.Fatalf("projection of %s.%s [%d, %d] diverges from the recorded answer", q.Table, q.Col, q.Lo, q.Hi)
	}
}

func goldenAnswer(t *testing.T, s *shard.Store, sc *goldenScript) {
	t.Helper()
	for _, q := range sc.Counts {
		if n, err := s.Count(q.Table, q.Col, q.Lo, q.Hi); err != nil || n != q.N {
			t.Fatalf("count %s.%s [%d, %d] = %d, %v; recorded %d", q.Table, q.Col, q.Lo, q.Hi, n, err, q.N)
		}
	}
	for _, q := range sc.Rows {
		res, err := s.Select(q.Table, q.Col, q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Rows(q.Cols...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(rows), q.Rows) {
			t.Fatalf("rows of %s.%s [%d, %d] diverge from the recorded answer", q.Table, q.Col, q.Lo, q.Hi)
		}
	}
}

// TestVersion4DataDirBoots: a data directory in the old layout whose
// images are version 4 boots with its payload vectors warm, answers what
// the build that wrote it answered, and leaves the new layout behind: a
// version-7 base, and no store/ or delta-* directory. It takes a
// version-7 delta on top and reboots to the same answers.
func TestVersion4DataDirBoots(t *testing.T) { bootGolden(t, "v4chain") }

// TestVersion5DataDirBoots is the same upgrade from version 5, whose
// column records carry their payload vectors.
func TestVersion5DataDirBoots(t *testing.T) { bootGolden(t, "v5chain") }

// imageVersions requires every shard image of an element to be version 7.
func imageVersions(t *testing.T, e element) {
	t.Helper()
	for _, path := range e.files {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if img[4] != 7 {
			t.Fatalf("%s is image version %d, want 7", filepath.Base(path), img[4])
		}
	}
}

func bootGolden(t *testing.T, name string) {
	data, err := os.ReadFile(filepath.Join("testdata", name+"-answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sc goldenScript
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	// A boot writes into its data dir: boot with a copy.
	dir := filepath.Join(t.TempDir(), "data")
	copyTree(t, filepath.Join("testdata", name), dir)

	s, info, err := shard.OpenDurable(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.ChainDeltas != 1 || s.ShardCount() != 2 {
		t.Fatalf("booted %+v over %d shards, want a base and one delta over 2", info, s.ShardCount())
	}
	if elems := elements(t, dir); len(elems) != 1 {
		t.Fatalf("the upgrade left %v, want one base element", elems)
	}
	for _, old := range []string{"store", "delta-000001"} {
		if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
			t.Fatalf("the upgrade left %s behind (%v)", old, err)
		}
	}
	base := elements(t, dir)[0]
	if len(base.files) != 2 {
		t.Fatalf("the upgraded base carries %v, want both shards", base.files)
	}
	imageVersions(t, base)
	goldenProject(t, s, sc.Project)
	goldenAnswer(t, s, &sc)
	kind, err := s.Checkpoint(false)
	if err != nil || kind != "delta" {
		t.Fatalf("checkpoint on the upgraded %s dir wrote %q, %v; want a delta", name, kind, err)
	}
	imageVersions(t, elements(t, dir)[1])
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s, info, err = shard.OpenDurable(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	if info.ChainDeltas != 1 {
		t.Fatalf("rebooted %+v, want a base and one delta", info)
	}
	goldenProject(t, s, sc.Project)
	goldenAnswer(t, s, &sc)
}
