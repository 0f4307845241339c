package crackdb

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func newEventStore(t *testing.T, n int) *Store {
	t.Helper()
	s := New()
	if err := s.CreateTable("events", "ts", "sensor", "reading"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), rng.Int63n(16), rng.Int63n(1000)}
	}
	if err := s.InsertRows("events", rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateInsertSelect(t *testing.T) {
	s := newEventStore(t, 2000)
	res, err := s.Select("events", "reading", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Fatal("empty result for a broad range")
	}
	for _, v := range res.Values() {
		if v < 100 || v > 200 {
			t.Fatalf("value %d outside range", v)
		}
	}
	// Counts agree with Select.
	n, err := s.Count("events", "reading", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Count() {
		t.Fatalf("Count=%d, Select=%d", n, res.Count())
	}
	// Repeating the query gets answered from the index: stats show no new
	// movement.
	st1, _ := s.Stats("events", "reading")
	if _, err := s.Select("events", "reading", 100, 200); err != nil {
		t.Fatal(err)
	}
	st2, _ := s.Stats("events", "reading")
	if st2.TuplesMoved != st1.TuplesMoved {
		t.Fatal("repeated query moved tuples")
	}
	if st2.Queries != st1.Queries+1 {
		t.Fatal("query not counted")
	}
}

func TestResultRowsFetchesAttributes(t *testing.T) {
	s := newEventStore(t, 500)
	res, err := s.Select("events", "sensor", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows("ts", "sensor", "reading")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != res.Count() {
		t.Fatalf("Rows returned %d, Count %d", len(rows), res.Count())
	}
	for _, r := range rows {
		if r[1] != 3 {
			t.Fatalf("fetched row %v has sensor != 3", r)
		}
	}
	if _, err := res.Rows("zzz"); err == nil {
		t.Fatal("fetching unknown column succeeded")
	}
}

func TestResultWriteTo(t *testing.T) {
	s := newEventStore(t, 300)
	res, err := s.Select("events", "reading", 0, 49)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	if len(lines) != res.Count() {
		t.Fatalf("wrote %d lines for %d tuples", len(lines), res.Count())
	}
}

// TestResultWriteToExtremes: the decimal text of the int64 extremes,
// math.MinInt64 above all — its negation does not exist.
func TestResultWriteToExtremes(t *testing.T) {
	for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		s := New()
		if err := s.CreateTable("x", "v"); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertRows("x", [][]int64{{v}}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Select("x", "v", math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := res.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if want := strconv.FormatInt(v, 10) + "\n"; buf.String() != want {
			t.Errorf("WriteTo printed %q for %d", buf.String(), v)
		}
	}
}

func TestResultMaterialize(t *testing.T) {
	s := newEventStore(t, 400)
	res, err := s.Select("events", "reading", 500, 999)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Materialize("hot"); err != nil {
		t.Fatal(err)
	}
	n, err := s.NumRows("hot")
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Count() {
		t.Fatalf("materialized %d rows, want %d", n, res.Count())
	}
	cols, _ := s.Columns("hot")
	if len(cols) != 3 {
		t.Fatalf("materialized columns = %v", cols)
	}
	if err := res.Materialize("hot"); err == nil {
		t.Fatal("duplicate materialization succeeded")
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	s := New()
	if err := s.CreateTable("t"); err == nil {
		t.Fatal("zero-column table created")
	}
	if err := s.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", "a"); err == nil {
		t.Fatal("duplicate table created")
	}
	if _, err := s.Select("nope", "a", 0, 1); err == nil {
		t.Fatal("select on missing table succeeded")
	}
	if _, err := s.Select("t", "zzz", 0, 1); err == nil {
		t.Fatal("select on missing column succeeded")
	}
	if err := s.InsertRows("nope", nil); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	if err := s.InsertRows("t", [][]int64{{1, 2}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.DropTable("nope"); err == nil {
		t.Fatal("dropping missing table succeeded")
	}
	if _, err := s.NumRows("nope"); err == nil {
		t.Fatal("NumRows on missing table succeeded")
	}
	if _, err := s.Columns("nope"); err == nil {
		t.Fatal("Columns on missing table succeeded")
	}
	if err := s.LoadTapestry("t", 10, 1, 0); err == nil {
		t.Fatal("tapestry over existing table succeeded")
	}
	if err := s.LoadTapestry("bad", 0, 1, 0); err == nil {
		t.Fatal("invalid tapestry accepted")
	}
}

func TestInsertFlowsIntoCrackedColumns(t *testing.T) {
	s := newEventStore(t, 100)
	if _, err := s.Select("events", "reading", 0, 500); err != nil {
		t.Fatal(err)
	}
	// New rows must be visible to subsequent queries.
	if err := s.InsertRows("events", [][]int64{{10000, 1, 77}, {10001, 2, 77}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Select("events", "reading", 77, 77)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	rows, err := res.Rows("ts")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0] >= 10000 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d of 2 inserted rows", found)
	}
	// The cracked state survived the insert (a consolidation, not a
	// rebuild from scratch, folded the rows in).
	st, err := s.Stats("events", "reading")
	if err != nil {
		t.Fatal(err)
	}
	if st.Consolidations == 0 {
		t.Fatal("insert did not flow through pending-update consolidation")
	}
}

func TestRippleUpdatesAtStoreLevel(t *testing.T) {
	s := New() // no knob: a trickle batch ripples because that is cheaper
	if err := s.LoadTapestry("tap", 5000, 1, 3); err != nil {
		t.Fatal(err)
	}
	// Crack well, then trickle inserts between queries.
	for _, q := range [][2]int64{{100, 900}, {2000, 2600}, {4000, 4700}, {300, 500}} {
		if _, err := s.Count("tap", "c0", q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := s.Stats("tap", "c0")
	if err := s.InsertRows("tap", [][]int64{{250}, {2500}, {4500}}); err != nil {
		t.Fatal(err)
	}
	n, err := s.Count("tap", "c0", 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5003 {
		t.Fatalf("count after ripple inserts = %d, want 5003", n)
	}
	after, _ := s.Stats("tap", "c0")
	// The fold kept the cracker index: every piece survived (the count's
	// own bounds add two) and the one fold was a ripple.
	if after.Pieces < before.Pieces || after.RippleFolds != 1 || after.RebuildFolds != 0 {
		t.Fatalf("index was not rippled: before %+v, after %+v", before, after)
	}
	// Point answers remain exact: the tapestry held exactly one 250.
	if got, _ := s.Count("tap", "c0", 250, 250); got != 2 {
		t.Fatalf("count(250) = %d, want 2", got)
	}
}

func TestLoadTapestry(t *testing.T) {
	s := New()
	if err := s.LoadTapestry("tap", 1000, 2, 7); err != nil {
		t.Fatal(err)
	}
	n, _ := s.NumRows("tap")
	if n != 1000 {
		t.Fatalf("tapestry rows = %d", n)
	}
	// Permutation: range [1,100] selects exactly 100 tuples.
	cnt, err := s.Count("tap", "c0", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 100 {
		t.Fatalf("tapestry count = %d, want 100", cnt)
	}
}

func TestGroupBy(t *testing.T) {
	s := New()
	s.CreateTable("g", "v")
	s.InsertRows("g", [][]int64{{3}, {1}, {3}, {2}, {1}, {3}})
	groups, err := s.GroupBy("g", "v")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{1: 2, 2: 1, 3: 3}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for _, g := range groups {
		if want[g.Value] != g.Count {
			t.Fatalf("group %d count %d, want %d", g.Value, g.Count, want[g.Value])
		}
	}
	if _, err := s.GroupBy("g", "zzz"); err == nil {
		t.Fatal("group by missing column succeeded")
	}
}

func TestSemijoinSplit(t *testing.T) {
	s := New()
	s.CreateTable("R", "k")
	s.CreateTable("S", "k")
	s.InsertRows("R", [][]int64{{1}, {5}, {9}, {3}, {7}, {2}})
	s.InsertRows("S", [][]int64{{3}, {8}, {1}, {7}})
	info, err := s.SemijoinSplit("R", "k", "S", "k")
	if err != nil {
		t.Fatal(err)
	}
	if info.RMatch != 3 || info.RRest != 3 {
		t.Fatalf("R split = %d/%d, want 3/3", info.RMatch, info.RRest)
	}
	if info.SMatch != 3 || info.SRest != 1 {
		t.Fatalf("S split = %d/%d, want 3/1", info.SMatch, info.SRest)
	}
	if _, err := s.SemijoinSplit("R", "k", "nope", "k"); err == nil {
		t.Fatal("semijoin with missing table succeeded")
	}
}

func TestVerticalPartitionAndReunite(t *testing.T) {
	s := newEventStore(t, 50)
	// A deleted tuple stays behind: neither piece nor the reunited table
	// holds it.
	if n, err := s.Delete("events", Cond{Col: "ts", Op: "=", Val: 7}); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	fetched, _ := s.FetchedTuples("events")
	head, rest, err := s.VerticalPartition("events", "reading")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.FetchedTuples("events"); n != fetched {
		t.Fatalf("Ψ counted %d fetched tuples", n-fetched)
	}
	for _, piece := range []string{head, rest} {
		if n, _ := s.NumRows(piece); n != 49 {
			t.Fatalf("%s holds %d rows, want the 49 live ones", piece, n)
		}
	}
	hCols, _ := s.Columns(head)
	if len(hCols) != 2 { // oid + reading
		t.Fatalf("head columns = %v", hCols)
	}
	rCols, _ := s.Columns(rest)
	if len(rCols) != 3 { // oid + ts + sensor
		t.Fatalf("rest columns = %v", rCols)
	}
	if err := s.Reunite("events2", head, rest, "ts", "sensor", "reading"); err != nil {
		t.Fatal(err)
	}
	n, _ := s.NumRows("events2")
	if n != 49 {
		t.Fatalf("reunited rows = %d", n)
	}
	// Reconstructed content matches the original, row by row.
	orig, err := s.Select("events", "ts", 0, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Select("events2", "ts", 0, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	o, err := orig.Rows("ts", "sensor", "reading")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.Rows("ts", "sensor", "reading")
	if err != nil {
		t.Fatal(err)
	}
	sortRows(o)
	sortRows(r)
	if len(o) != len(r) {
		t.Fatalf("row counts differ: %d vs %d", len(o), len(r))
	}
	for i := range o {
		for j := range o[i] {
			if o[i][j] != r[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, o[i], r[i])
			}
		}
	}
	// The pieces are tables like any other: they take inserts, before a
	// Save/Open round trip as after it.
	if err := s.InsertRows(head, [][]int64{{50, 999}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.crk")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.InsertRows(head, [][]int64{{51, 998}}); err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Count(head, "oid", 50, 51); n != 2 {
		t.Fatalf("reopened head counts %d inserted rows, want 2", n)
	}
	if n, _ := re.NumRows("events2"); n != 49 {
		t.Fatalf("reopened reunited table holds %d rows, want 49", n)
	}
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

func TestLineageRendering(t *testing.T) {
	s := newEventStore(t, 200)
	s.Select("events", "reading", 100, 300)
	s.Select("events", "reading", 150, 250)
	lin, err := s.Lineage("events", "reading")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lin, "Ξ") {
		t.Fatalf("lineage missing Ξ records:\n%s", lin)
	}
}

func TestOpenRejectsCorruptStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.crk")
	s := newEventStore(t, 50)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// Corrupt the rows the image carries.
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*Store, error){
		"warm": func(path string) (*Store, error) { return Open(path) },
		"cold": OpenCold,
	} {
		if _, err := open(path); err == nil {
			t.Fatalf("%s: corrupt store opened", name)
		}
		// No image file at all.
		if _, err := open(filepath.Join(t.TempDir(), "missing.crk")); err == nil {
			t.Fatalf("%s: missing image opened", name)
		}
	}
}

func readFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// TestNameBoundOnStore: every way a table enters the store refuses a
// table or column name longer than an image can carry, with the text the
// router gives too.
func TestNameBoundOnStore(t *testing.T) {
	s := newEventStore(t, 100)
	res, err := s.Select("events", "ts", 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 1<<20+1)
	for what, err := range map[string]error{
		"create table":  s.CreateTable(long, "a"),
		"create column": s.CreateTable("u", "a", long),
		"tapestry":      s.LoadTapestry(long, 10, 1, 1),
		"materialize":   res.Materialize(long),
	} {
		if err == nil || !strings.HasPrefix(err.Error(), "crackdb: ") || !strings.Contains(err.Error(), "name of 1048577 bytes exceeds 1048576") {
			t.Fatalf("%s with a long name: err %v", what, err)
		}
	}
	if got := s.Tables(); len(got) != 1 {
		t.Fatalf("tables after refusals: %v", got)
	}
}
