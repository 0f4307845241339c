package sql

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/obs"
	"crackdb/internal/shard"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM r WHERE a <= -10 AND b <> 3; -- comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "r", "WHERE", "a", "<=", "-10", "AND", "b", "<>", "3", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[9] != TokNumber {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("< <= = >= > <> !=")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<", "<=", "=", ">=", ">", "<>", "<>"}
	for i, w := range want {
		if toks[i].Kind != TokOp || toks[i].Text != w {
			t.Fatalf("op %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"a @ b", "x ! y"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) succeeded", bad)
		}
	}
}

func TestParseCreateInsertDrop(t *testing.T) {
	stmt, err := Parse("CREATE TABLE r (k INT, a INTEGER, b)")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(CreateTable)
	if !ok || ct.Name != "r" || len(ct.Columns) != 3 {
		t.Fatalf("parsed %#v", stmt)
	}

	stmt, err = Parse("INSERT INTO r VALUES (1, 2, 3), (4, 5, -6)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(Insert)
	if ins.Table != "r" || len(ins.Rows) != 2 || ins.Rows[1][2] != -6 {
		t.Fatalf("parsed %#v", ins)
	}

	stmt, err = Parse("DROP TABLE r;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(DropTable).Name != "r" {
		t.Fatalf("parsed %#v", stmt)
	}
}

func TestParseSelectForms(t *testing.T) {
	stmt, err := Parse("SELECT * FROM r WHERE r.a >= 10 AND r.a < 20 AND k <> 5 ORDER BY k DESC LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if !sel.Star || sel.Table != "r" || len(sel.Where) != 3 {
		t.Fatalf("parsed %#v", sel)
	}
	if sel.Where[0] != (crackdb.Cond{Col: "a", Op: ">=", Val: 10}) {
		t.Fatalf("cond[0] = %#v", sel.Where[0])
	}
	if sel.OrderBy != "k" || !sel.Desc || sel.Limit != 7 {
		t.Fatalf("order/limit: %#v", sel)
	}

	stmt, err = Parse("SELECT sensor, COUNT(*), SUM(value) FROM events GROUP BY sensor")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*Select)
	if len(sel.Items) != 3 || sel.Items[1].Agg != AggCountStar || sel.Items[2].Agg != AggSum {
		t.Fatalf("parsed %#v", sel)
	}
	if sel.GroupBy != "sensor" {
		t.Fatalf("group by = %q", sel.GroupBy)
	}

	stmt, err = Parse("SELECT k, a INTO frag001 FROM r WHERE a BETWEEN 5 AND 9")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*Select)
	if sel.Into != "frag001" || len(sel.Where) != 2 {
		t.Fatalf("parsed %#v", sel)
	}
	if sel.Where[0].Op != ">=" || sel.Where[1].Op != "<=" {
		t.Fatalf("BETWEEN desugaring: %#v", sel.Where)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT FROM r",
		"SELECT * FROM",
		"SELECT * r",
		"CREATE TABLE ()",
		"INSERT r VALUES (1)",
		"INSERT INTO r VALUES 1",
		"SELECT * FROM r WHERE a",
		"SELECT * FROM r WHERE a BETWEEN 1",
		"SELECT * FROM r LIMIT -3",
		"UPDATE r",
		"SELECT * FROM r extra",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestSplitScriptMultiple(t *testing.T) {
	texts, err := SplitScript("CREATE TABLE r (a); INSERT INTO r VALUES (1);\n-- the rows\n  SELECT * FROM r -- all\n")
	want := []string{"CREATE TABLE r (a)", "INSERT INTO r VALUES (1)", "SELECT * FROM r -- all\n"}
	if err != nil || !slices.Equal(texts, want) {
		t.Fatalf("SplitScript = %q, %v; want %q", texts, err, want)
	}
	if texts, err := SplitScript("CREATE TABLE r (a); SELEC * FROM r;"); err == nil {
		t.Fatalf("a script with a syntax error split into %q", texts)
	}
}

// execScript runs each statement of script through Exec, failing t at
// the first error.
func execScript(t *testing.T, e *Engine, script string) {
	t.Helper()
	stmts, err := SplitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		if _, err := e.Exec(stmt); err != nil {
			t.Fatalf("statement %d: %v", i+1, err)
		}
	}
}

func newEngine(t *testing.T) (*Engine, *crackdb.Store) {
	t.Helper()
	store := shard.New(shard.Options{})
	e := NewEngineOn(store)
	script := `
		CREATE TABLE r (k INT, a INT);
		INSERT INTO r VALUES (0, 50), (1, 30), (2, 70), (3, 10), (4, 90),
		                     (5, 30), (6, 60), (7, 20), (8, 80), (9, 40);
	`
	execScript(t, e, script)
	return e, store.Shard(0)
}

func TestExecSelectWhere(t *testing.T) {
	e, _ := newEngine(t)
	rs, err := e.Exec("SELECT k, a FROM r WHERE a >= 30 AND a < 70 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 2 || rs.Columns[0] != "k" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	wantA := []int64{30, 30, 40, 50, 60}
	if len(rs.Rows) != len(wantA) {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for i, r := range rs.Rows {
		if r[1] != wantA[i] {
			t.Fatalf("row %d = %v, want a=%d", i, r, wantA[i])
		}
	}
}

func TestExecCountStar(t *testing.T) {
	e, _ := newEngine(t)
	rs, err := e.Exec("SELECT COUNT(*) FROM r WHERE a > 50")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != 4 {
		t.Fatalf("count = %d, want 4", rs.Rows[0][0])
	}
	rs, err = e.Exec("SELECT COUNT(*) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != 10 {
		t.Fatalf("total count = %d", rs.Rows[0][0])
	}
}

func TestExecAggregates(t *testing.T) {
	e, _ := newEngine(t)
	rs, err := e.Exec("SELECT SUM(a), MIN(a), MAX(a), COUNT(a) FROM r WHERE a <= 40")
	if err != nil {
		t.Fatal(err)
	}
	row := rs.Rows[0]
	if row[0] != 30+10+30+20+40 || row[1] != 10 || row[2] != 40 || row[3] != 5 {
		t.Fatalf("aggregates = %v", row)
	}
}

func TestExecGroupBy(t *testing.T) {
	e := NewEngineOn(shard.New(shard.Options{}))
	script := `
		CREATE TABLE events (sensor, value);
		INSERT INTO events VALUES (1, 10), (2, 5), (1, 20), (2, 7), (3, 1);
	`
	execScript(t, e, script)
	rs, err := e.Exec("SELECT sensor, COUNT(*), SUM(value) FROM events GROUP BY sensor ORDER BY sensor")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2, 30}, {2, 2, 12}, {3, 1, 1}}
	if len(rs.Rows) != len(want) {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for i := range want {
		for j := range want[i] {
			if rs.Rows[i][j] != want[i][j] {
				t.Fatalf("group rows = %v, want %v", rs.Rows, want)
			}
		}
	}
}

func TestExecOrderByUnprojectedColumn(t *testing.T) {
	e, _ := newEngine(t)
	rs, err := e.Exec("SELECT k FROM r WHERE a >= 50 ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	// a DESC: 90(k=4), 80(k=8), 70(k=2), 60(k=6), 50(k=0).
	wantK := []int64{4, 8, 2, 6, 0}
	for i, r := range rs.Rows {
		if len(r) != 1 || r[0] != wantK[i] {
			t.Fatalf("rows = %v, want k order %v", rs.Rows, wantK)
		}
	}
}

func TestExecLimit(t *testing.T) {
	e, _ := newEngine(t)
	rs, err := e.Exec("SELECT k FROM r ORDER BY k LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 || rs.Rows[2][0] != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestExecSelectInto(t *testing.T) {
	e, _ := newEngine(t)
	// The paper's §5.1 SQL-level cracking idiom: two SELECT INTOs.
	if _, err := e.Exec("SELECT k, a INTO frag001 FROM r WHERE a <= 40"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("SELECT k, a INTO frag002 FROM r WHERE a > 40"); err != nil {
		t.Fatal(err)
	}
	c1, err := e.Exec("SELECT COUNT(*) FROM frag001")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Exec("SELECT COUNT(*) FROM frag002")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Rows[0][0]+c2.Rows[0][0] != 10 {
		t.Fatalf("fragments sum to %d, want 10 (loss-less)", c1.Rows[0][0]+c2.Rows[0][0])
	}
}

func TestExecCracksAsSideEffect(t *testing.T) {
	e, store := newEngine(t)
	if _, err := e.Exec("SELECT k FROM r WHERE a BETWEEN 30 AND 60"); err != nil {
		t.Fatal(err)
	}
	st, err := store.Stats("r", "a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cracks == 0 || st.Pieces < 2 {
		t.Fatalf("SQL query did not crack: %+v", st)
	}
}

// TestSpellingsShareCuts: below the planner a range is one inclusive
// pair, so `c0 >= a AND c0 < b` and `c0 BETWEEN a AND b-1` are the same
// two cuts on every shard of a router: the second spelling cracks
// nothing.
func TestSpellingsShareCuts(t *testing.T) {
	store := shard.New(shard.Options{Shards: 4})
	if err := store.LoadTapestry("bench", 20_000, 1, 7); err != nil {
		t.Fatal(err)
	}
	e := NewEngineOn(store)
	cracks := func() int {
		per, err := store.ShardStats("bench", "c0")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, st := range per {
			n += st.Cracks
		}
		return n
	}
	var counts []int64
	var after []int
	for _, q := range []string{
		"SELECT COUNT(*) FROM bench WHERE c0 >= 5000 AND c0 < 6000",
		"SELECT COUNT(*) FROM bench WHERE c0 BETWEEN 5000 AND 5999",
	} {
		rs, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		counts, after = append(counts, rs.Rows[0][0]), append(after, cracks())
	}
	if counts[0] != 1000 || counts[1] != 1000 || after[0] == 0 || after[1] != after[0] {
		t.Fatalf("counts %v; cracks %d after the half-open spelling, %d after BETWEEN (want 1000 each, and no new crack)", counts, after[0], after[1])
	}
}

func TestExecErrors(t *testing.T) {
	e, _ := newEngine(t)
	for _, bad := range []string{
		"SELECT * FROM missing",
		"SELECT zzz FROM r",
		"SELECT * FROM r WHERE zzz < 1",
		"CREATE TABLE r (x)",         // duplicate
		"INSERT INTO r VALUES (1)",   // arity
		"SELECT k, SUM(a) FROM r",    // plain col with aggregate, no GROUP BY
		"SELECT a FROM r GROUP BY k", // a not grouped
	} {
		if _, err := e.Exec(bad); err == nil {
			t.Errorf("Exec(%q) succeeded", bad)
		}
	}
}

func TestExecDDLMessages(t *testing.T) {
	e := NewEngineOn(shard.New(shard.Options{}))
	rs, err := e.Exec("CREATE TABLE t (a)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.Message, "created") {
		t.Fatalf("message = %q", rs.Message)
	}
	rs, err = e.Exec("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.Message, "inserted 1") {
		t.Fatalf("message = %q", rs.Message)
	}
	rs, err = e.Exec("DROP TABLE t")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.Message, "dropped") {
		t.Fatalf("message = %q", rs.Message)
	}
}

func TestGroupByOmegaFastPathAgrees(t *testing.T) {
	// The Ω fast path and the generic aggregation must produce identical
	// results; WHERE forces the generic path.
	store := shard.New(shard.Options{})
	e := NewEngineOn(store)
	execScript(t, e, `
		CREATE TABLE ev (s, v);
		INSERT INTO ev VALUES (2, 9), (1, 3), (2, 4), (3, 1), (1, 7), (2, 2);
	`)
	fast, err := e.Exec("SELECT s, COUNT(*) FROM ev GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	generic, err := e.Exec("SELECT s, COUNT(*) FROM ev WHERE v >= -100 GROUP BY s ORDER BY s")
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != len(generic.Rows) {
		t.Fatalf("fast %v vs generic %v", fast.Rows, generic.Rows)
	}
	for i := range fast.Rows {
		if fast.Rows[i][0] != generic.Rows[i][0] || fast.Rows[i][1] != generic.Rows[i][1] {
			t.Fatalf("fast %v vs generic %v", fast.Rows, generic.Rows)
		}
	}
	// The Ω path clustered the column: the store records the group crack.
	st, err := store.Shard(0).Stats("ev", "s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Pieces < 3 {
		t.Fatalf("Ω fast path did not cluster: %+v", st)
	}
}

func TestDeleteStatement(t *testing.T) {
	e := NewEngineOn(shard.New(shard.Options{}))
	execScript(t, e, `
		CREATE TABLE r (a, b);
		INSERT INTO r VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
	`)
	rs, err := e.Exec("DELETE FROM r WHERE a >= 2 AND a <= 4")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Message != "deleted 3 rows from r" {
		t.Fatalf("message %q", rs.Message)
	}
	cnt, err := e.Exec("SELECT COUNT(*) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if got := cnt.Rows[0][0]; got != 2 {
		t.Fatalf("COUNT(*) after delete = %d, want 2", got)
	}
	rows, err := e.Exec("SELECT a FROM r WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range rows.Rows {
		got = append(got, row[0])
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("surviving rows %v, want [1 5]", got)
	}
	// BETWEEN sugar and unconditional delete.
	if _, err := e.Exec("DELETE FROM r WHERE a BETWEEN 1 AND 1"); err != nil {
		t.Fatal(err)
	}
	rs, err = e.Exec("DELETE FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Message != "deleted 1 rows from r" {
		t.Fatalf("unconditional delete message %q", rs.Message)
	}
	if _, err := e.Exec("DELETE FROM missing"); err == nil {
		t.Fatal("DELETE from a missing table did not error")
	}
}

// TestExecWindowAgreesWithExecStmt: a window parsed through one Parser,
// as a server parses it, answers every statement as execStmt does one
// by one — rows, messages and error text — while each run of range
// counts on one column, a lone count too, crosses the store as one
// CountBatch, and only the runs of two or more are timed as batches.
// The counts after the first of each shape are folded from their
// literals: each operator's fold, an unsatisfiable range, a run whose
// batch fails and so answers each count its error, and a <> the Parser
// does not fold. A lone count on a missing table and one on an unknown
// column fail as they do alone.
func TestExecWindowAgreesWithExecStmt(t *testing.T) {
	window, _ := newEngine(t)
	sequential, _ := newEngine(t)
	window.store.EnableObservability(1)
	texts := []string{
		"SELECT COUNT(*) FROM r WHERE a >= 20 AND a < 60", // a run of eight on a
		"SELECT COUNT(*) FROM r WHERE a >= 30 AND a < 70",
		"SELECT COUNT(*) FROM r WHERE a > 20 AND a <= 60",
		"SELECT COUNT(*) FROM r WHERE a > 30 AND a <= 70",
		"SELECT COUNT(*) FROM r WHERE a = 30",
		"SELECT COUNT(*) FROM r WHERE a = 40",
		"SELECT COUNT(*) FROM r WHERE a > 90 AND a < 10",
		"SELECT COUNT(*) FROM r WHERE a > 80 AND a < 20",
		"SELECT COUNT(*) FROM r WHERE k < 5", // a run of one on k
		"SELECT COUNT(*) FROM r WHERE a <> 30",
		"SELECT COUNT(*) FROM r WHERE a <> 40",
		"SELECT COUNT(*) FROM r",
		"SELECT COUNT(*) FROM r WHERE a > 10 AND k < 8",
		"SELECT COUNT(*) FROM missing WHERE a < 5", // a run whose batch fails
		"SELECT COUNT(*) FROM missing WHERE a < 9",
		"SELECT COUNT(*) FROM r WHERE zzz > 5 AND zzz < 3", // routed nowhere, still an error
		"SELECT COUNT(*) FROM r WHERE zzz > 7 AND zzz < 3",
		"INSERT INTO r VALUES (10, 35), (11, 65)",
		"SELECT COUNT(*) FROM r WHERE a >= 30 AND a <= 40", // a second run on a
		"SELECT COUNT(*) FROM r WHERE a >= 60",
		"SELECT a, COUNT(*) FROM r GROUP BY a",
		"SELECT COUNT(*) FROM missing WHERE a < 7", // a run of one whose batch fails
		"SELECT COUNT(*) FROM r WHERE zzz < 3",     // a run of one on an unknown column
		"SELECT k, a FROM r WHERE a BETWEEN 30 AND 60 ORDER BY k",
		"SELECT COUNT(*) INTO c FROM r WHERE a < 50",
		"SELECT COUNT(*) FROM r WHERE a < 50",
	}
	stmts := make([]Stmt, len(texts))
	var parser Parser
	folded := 0 // the counts folded from a remembered shape
	for i, text := range texts {
		var vals [memoLits]int64
		if parser.folds && parser.match(text, &vals) {
			folded++
		}
		var err error
		if stmts[i], err = parser.Classify(text); err != nil {
			t.Fatal(err)
		}
	}
	if folded != 6 {
		t.Fatalf("the Parser folded %d counts from a remembered shape, want 6", folded)
	}
	results := window.ExecWindow(stmts)
	if len(results) != len(stmts) {
		t.Fatalf("%d results for %d statements", len(results), len(stmts))
	}
	for i, text := range texts {
		st, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := sequential.execStmt(st)
		got := results[i]
		if fmt.Sprint(got.Err) != fmt.Sprint(wantErr) || fmt.Sprint(got.Set) != fmt.Sprint(want) {
			t.Fatalf("%s: window answers %v, %v; execStmt %v, %v", text, got.Set, got.Err, want, wantErr)
		}
	}
	fams, _ := window.store.Gather()
	var text strings.Builder
	if err := obs.WriteText(&text, fams); err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "crackdb_query_latency_ns_count{") && strings.Contains(f[0], `path="batch"`) {
			n, _ := strconv.Atoi(f[1])
			batches += n
		}
	}
	if batches != 2 {
		t.Fatalf("the window crossed the store in %d batches, want 2 (the two runs on a)", batches)
	}
}
