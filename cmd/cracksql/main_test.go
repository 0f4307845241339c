package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// childEnv makes the test binary run as cracksql itself (TestMain), so
// the tests drive the real command line and stdin with no build step.
const childEnv = "CRACKSQL_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cracksql runs the command with args on stdin and returns its stdout,
// failing t unless it exits 0.
func cracksql(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	out, stderr, err := start(stdin, args...)
	if err != nil {
		t.Fatalf("cracksql %v: %v\n%s", args, err, stderr)
	}
	return out
}

// start runs the command with args on stdin and returns its stdout, its
// stderr and how it exited.
func start(stdin string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	return string(out), errBuf.String(), err
}

// TestScriptRowOrder: a script's SELECT … LIMIT without ORDER BY answers
// in canonical order, as cracksrv does, not in the order a crack left.
func TestScriptRowOrder(t *testing.T) {
	script := filepath.Join(t.TempDir(), "s.sql")
	if err := os.WriteFile(script, []byte(`
		CREATE TABLE t (a, b);
		INSERT INTO t VALUES (5, 50), (3, 30), (9, 90), (1, 10), (7, 70), (4, 40), (8, 80);
		SELECT COUNT(*) FROM t WHERE a >= 6;
		SELECT a, b FROM t WHERE a >= 2 LIMIT 4;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := `created table t (2 columns)
inserted 7 rows into t
count(*)
--------
       3
(1 rows)
` + "a | b \n" + `--+---
3 | 30
4 | 40
5 | 50
7 | 70
(4 rows)
`
	if got := cracksql(t, "", "-f", script); got != want {
		t.Fatalf("cracksql -f answered:\n%s\nwant:\n%s", got, want)
	}
}

// TestScriptStopsAtFailure: -f refuses a script with a syntax error
// before any statement runs, and stops at the first statement that
// fails, naming it.
func TestScriptStopsAtFailure(t *testing.T) {
	script := filepath.Join(t.TempDir(), "s.sql")
	for _, c := range []struct{ script, stdout, stderr string }{
		{"CREATE TABLE t (a); SELEC a FROM t;", "", "cracksql: sql: offset 20: "},
		{"CREATE TABLE t (a); SELECT * FROM missing; INSERT INTO t VALUES (1);",
			"created table t (1 columns)\n", "cracksql: statement 2: "},
	} {
		if err := os.WriteFile(script, []byte(c.script), 0o644); err != nil {
			t.Fatal(err)
		}
		out, stderr, err := start("", "-f", script)
		if err == nil || out != c.stdout || !strings.HasPrefix(stderr, c.stderr) {
			t.Errorf("%q: exit %v, stdout %q, stderr %q; want a failure, stdout %q, stderr from %q", c.script, err, out, stderr, c.stdout, c.stderr)
		}
	}
}

// TestDataRoundTrip: a -data session's tables and crack state survive
// \save and exit, and the reopened store answers exactly.
func TestDataRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	out := cracksql(t, `\tapestry r 10000 2
SELECT COUNT(*) FROM r WHERE c0 < 500;
SELECT COUNT(*) FROM r WHERE c0 >= 7000;
\save
\quit
`, "-data", dir)
	if !strings.Contains(out, "checkpoint complete (full)") {
		t.Fatalf("\\save did not write a full checkpoint:\n%s", out)
	}
	out = cracksql(t, `\stats r c0
SELECT COUNT(*) FROM r WHERE c0 < 500;
`, "-data", dir)
	cell := cell(out, "total", "pieces")
	if cell == "" {
		t.Fatalf("no \\stats pieces after reopen:\n%s", out)
	}
	if pieces, _ := strconv.Atoi(cell); pieces < 2 {
		t.Fatalf("reopened c0 has %s pieces, want the cracks of the first session:\n%s", cell, out)
	}
	if !strings.Contains(out, "\n     499\n(1 rows)") {
		t.Fatalf("count after reopen is not 499:\n%s", out)
	}
}

// cell reads a printed table in out: the cell in column col of the row
// whose first cell is row, or "" if there is none.
func cell(out, row, col string) string {
	at := -1
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Split(line, "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if i := slices.Index(cells, col); i >= 0 {
			at = i
		} else if at >= 0 && at < len(cells) && cells[0] == row {
			return cells[at]
		}
	}
	return ""
}
