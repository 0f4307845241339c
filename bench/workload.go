package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"

	"crackdb"
	"crackdb/internal/server"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
	"crackdb/internal/workload"
)

// table is the one relation every workload queries: a DBtapestry table
// whose columns are permutations of 1..rows, so a range count is exactly
// the width of the range inside the domain.
const table = "bench"

// sizes freezes the input sizes. full is what BENCHMARK.json's numbers
// mean; smoke is the same script small enough for go test.
type sizes struct {
	rows       int // N: tuples in the table
	pool       int // distinct 1 % count ranges on c0 (steady_*, durable_mixed)
	fetchPool  int // distinct 0.1 % row-fetch ranges on c0 (steady_scalar)
	epochStmts int // cold_crack: statements per epoch (the K of "cost at K")
	window     int // steady_pipelined: requests in flight per connection
	insertRows int // durable_mixed: tuples per INSERT
	saveRows   int // durable_mixed: /save after this many acked rows
	ladder     int // traced run: statements (or pipelined windows) fed to each depth
}

var (
	fullSizes = sizes{
		rows: 1_000_000, pool: 16384, fetchPool: 2048,
		epochStmts: 2000, window: 64,
		insertRows: 16, saveRows: 4000, ladder: 500,
	}
	smokeSizes = sizes{
		rows: 20_000, pool: 256, fetchPool: 64,
		epochStmts: 100, window: 64,
		insertRows: 16, saveRows: 320, ladder: 64,
	}
)

// spec describes one workload: the server it needs and the traffic it
// sends. The four names are the handles BENCHMARK.json lists.
type spec struct {
	name     string
	why      string
	alpha    int  // tapestry columns
	autotune bool // cracksrv -autotune
	durable  bool // cracksrv -data <tmp> -ckptdelta; SIGKILL and recover at the end
	warm     bool // apply the range pools during set-up (converged store)
}

// shards is cracksrv's default and what every workload runs on.
const shards = 4

// flags are the cracksrv flags besides -addr.
func (sp spec) flags(dataDir string) []string {
	f := []string{"-shards", strconv.Itoa(shards)}
	if sp.autotune {
		f = append(f, "-autotune")
	}
	if sp.durable {
		f = append(f, "-data", dataDir, "-ckptdelta")
	}
	return f
}

var specs = []spec{
	{
		name:  "cold_crack",
		why:   "virgin columns under random and sequential 1% counts: cracker creation, crack kernels and the tuner do the work; nothing is converged",
		alpha: 2, autotune: true,
	},
	{
		name:  "steady_scalar",
		why:   "converged store, synchronous scalar counts plus 1 in 10 row fetches: framing, sql, shard fan-out and the planner do the work; the crack kernel does none",
		alpha: 4, warm: true,
	},
	{
		name:  "steady_pipelined",
		why:   "same store and ranges through 64-deep pipelines: the server folds runs into CountBatch, bypassing sql.Engine and the planner (the control for steady_scalar)",
		alpha: 4, warm: true,
	},
	{
		name:  "durable_mixed",
		why:   "fsynced 16-row inserts beside counts with periodic delta checkpoints, then SIGKILL and recovery: WAL, group commit, checkpoint and pending-insert merge do the work",
		alpha: 2, durable: true, warm: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type stmtKind uint8

const (
	kindCount stmtKind = iota
	kindRows
	kindInsert
	kindWindow // traced run only: one pipelined window of counts
)

// stmt is one generated statement together with what the oracle needs
// to check its answer.
type stmt struct {
	kind   stmtKind
	text   string
	col    string
	lo, hi int64     // the half-open range [lo, hi) on col
	incl   bool      // text spells the upper bound as <= hi-1
	rows   [][]int64 // insert payload
}

// conds is the statement's WHERE clause as the store API takes it.
func (st *stmt) conds() []crackdb.Cond {
	if st.incl {
		return []crackdb.Cond{{Col: st.col, Op: ">=", Val: st.lo}, {Col: st.col, Op: "<=", Val: st.hi - 1}}
	}
	return []crackdb.Cond{{Col: st.col, Op: ">=", Val: st.lo}, {Col: st.col, Op: "<", Val: st.hi}}
}

// countStmt is the half-open form cold_crack sends.
func countStmt(col string, lo, hi int64) stmt {
	return stmt{kind: kindCount, col: col, lo: lo, hi: hi,
		text: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s >= %d AND %s < %d", table, col, lo, col, hi)}
}

// The pool statements spell the same ranges with an inclusive upper
// bound. The server's pipelined fold turns every range into an inclusive
// one, and the cracker index keys a cut by (value, inclusive): written
// this way the scalar and the pipelined path name the same cuts, so a
// store warmed through the fast path is converged for both.
func poolCountStmt(lo, hi int64) stmt {
	return stmt{kind: kindCount, col: "c0", lo: lo, hi: hi, incl: true,
		text: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE c0 >= %d AND c0 <= %d", table, lo, hi-1)}
}

func rowsStmt(lo, hi int64) stmt {
	return stmt{kind: kindRows, col: "c0", lo: lo, hi: hi, incl: true,
		text: fmt.Sprintf("SELECT c0, c1, c2 FROM %s WHERE c0 >= %d AND c0 <= %d", table, lo, hi-1)}
}

func insertStmt(rows [][]int64) stmt {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte(')')
	}
	return stmt{kind: kindInsert, rows: rows, text: b.String()}
}

// rangePool draws count distinct ranges of the given width inside
// [1, n], rendered by mk.
func rangePool(rng *rand.Rand, n int64, count int, width int64, mk func(lo, hi int64) stmt) []stmt {
	seen := make(map[int64]bool, count)
	out := make([]stmt, 0, count)
	for len(out) < count {
		lo := 1 + rng.Int63n(n-width+1)
		if seen[lo] {
			continue
		}
		seen[lo] = true
		out = append(out, mk(lo, lo+width))
	}
	return out
}

// inputs is everything a run generates from its seed before the clock
// starts: the range pools the steady workloads draw from.
type inputs struct {
	sz    sizes
	seed  int64
	pool  []stmt // 1 % counts on c0
	fetch []stmt // 0.1 % three-column fetches on c0
}

func newInputs(sz sizes, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := int64(sz.rows)
	return &inputs{
		sz: sz, seed: seed,
		pool:  rangePool(rng, n, sz.pool, max(n/100, 1), poolCountStmt),
		fetch: rangePool(rng, n, sz.fetchPool, max(n/1000, 1), rowsStmt),
	}
}

// warmup is the statement list that converges a store on both pools:
// every bound any steady statement will use becomes a cut.
func (in *inputs) warmup() []stmt {
	out := append([]stmt(nil), in.pool...)
	for _, f := range in.fetch {
		out = append(out, poolCountStmt(f.lo, f.hi))
	}
	return out
}

// clientRNG derives one connection's statement stream from the seed.
func (in *inputs) clientRNG(client int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + int64(client) + 1))
}

// scalarNext is steady_scalar's mix: 9 in 10 a pool count, 1 in 10 a
// row fetch.
func (in *inputs) scalarNext(rng *rand.Rand) *stmt {
	if rng.Intn(10) == 0 {
		return &in.fetch[rng.Intn(len(in.fetch))]
	}
	return &in.pool[rng.Intn(len(in.pool))]
}

func (in *inputs) poolNext(rng *rand.Rand) *stmt { return &in.pool[rng.Intn(len(in.pool))] }

// insertNext builds one client's next insert: keys above the tapestry
// domain, disjoint between clients, so pool counts stay exact.
func (in *inputs) insertNext(client int, seq *int64, alpha int) stmt {
	rows := make([][]int64, in.sz.insertRows)
	for i := range rows {
		key := int64(in.sz.rows) + 1 + int64(client)<<32 + *seq
		*seq++
		row := make([]int64, alpha)
		for j := range row {
			row[j] = key + int64(j)
		}
		rows[i] = row
	}
	return insertStmt(rows)
}

// epochStream is one cold_crack epoch: epochStmts 1 % counts on column
// c<epoch>, random on epoch 0 and sequential on epoch 1.
func (in *inputs) epochStream(epoch int) ([]stmt, error) {
	pattern := workload.Random
	if epoch%2 == 1 {
		pattern = workload.Sequential
	}
	gen, err := workload.New(pattern, workload.Config{
		Domain: int64(in.sz.rows), Count: in.sz.epochStmts, Selectivity: 0.01, Seed: in.seed + int64(epoch),
	})
	if err != nil {
		return nil, err
	}
	col := "c" + strconv.Itoa(epoch)
	out := make([]stmt, 0, in.sz.epochStmts)
	for _, q := range gen.Queries() {
		out = append(out, countStmt(col, q.Lo+1, q.Hi+1)) // generator domain [0,N) → keys 1..N
	}
	return out, nil
}

// check is the permutation oracle: the table's columns are permutations
// of 1..n, so every answer is known without a second database.
func (st *stmt) check(resp *server.Response, n int64) error {
	if resp.Err != "" {
		return fmt.Errorf("%s: server error: %s", st.text, resp.Err)
	}
	switch st.kind {
	case kindCount:
		got, err := resp.Int64(0, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", st.text, err)
		}
		if want := domainOverlap(st.lo, st.hi, n); got != want {
			return fmt.Errorf("%s: count %d, want %d", st.text, got, want)
		}
	case kindRows:
		want := domainOverlap(st.lo, st.hi, n)
		if int64(len(resp.Rows)) != want {
			return fmt.Errorf("%s: %d rows, want %d", st.text, len(resp.Rows), want)
		}
		var sum, prev int64
		for i, row := range resp.Rows {
			if len(row) != 3 {
				return fmt.Errorf("%s: row %d has %d cells, want 3", st.text, i, len(row))
			}
			k, err := strconv.ParseInt(row[0], 10, 64)
			if err != nil {
				return fmt.Errorf("%s: row %d: %w", st.text, i, err)
			}
			if i > 0 && k <= prev {
				return fmt.Errorf("%s: row %d key %d after %d: not in canonical order", st.text, i, k, prev)
			}
			prev = k
			sum += k
		}
		lo, hi := max(st.lo, 1), min(st.hi, n+1)
		if wantSum := (lo + hi - 1) * (hi - lo) / 2; sum != wantSum {
			return fmt.Errorf("%s: key sum %d, want %d", st.text, sum, wantSum)
		}
	case kindInsert:
		if want := fmt.Sprintf("inserted %d rows into %s", len(st.rows), table); resp.Message != want {
			return fmt.Errorf("insert answered %q, want %q", resp.Message, want)
		}
	}
	return nil
}

// domainOverlap is |[lo, hi) ∩ [1, n]|.
func domainOverlap(lo, hi, n int64) int64 {
	lo, hi = max(lo, 1), min(hi, n+1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// sample is a statement kept with its wire answer for the twin check.
type sample struct {
	st   *stmt
	resp *server.Response
}

// The embedded-twin comparison samples one statement in twinEvery per
// connection, and keeps at most twinMax of them: the twin starts
// uncracked, so every sample costs it a crack, and the pipelined
// workload would otherwise hand it thousands.
const (
	twinEvery = 64
	twinMax   = 256
)

// twinCheck replays the sampled statements on an embedded twin — one
// crackdb.Store behind a one-shard router, which is what gives row
// results their canonical order — loaded with the same tapestry, and
// compares each answer cell by cell with what came over the wire. It
// runs after the measured phase: the twin cracks on the harness's
// cores, which the server shares.
func twinCheck(samples []sample, rows, alpha int, seed int64) (failed int, first error) {
	if len(samples) == 0 {
		return 0, nil
	}
	st := shard.New(shard.Options{Shards: 1})
	if err := st.LoadTapestry(table, rows, alpha, seed); err != nil {
		return len(samples), err
	}
	eng := sql.NewEngineOn(st)
	for _, s := range samples {
		rs, err := eng.Exec(s.st.text)
		if err == nil {
			err = sameAnswer(rs, s.resp)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("twin mismatch on %s: %w", s.st.text, err)
			}
		}
	}
	return failed, first
}

// sameAnswer compares a local result set with a decoded wire response.
func sameAnswer(rs *sql.ResultSet, resp *server.Response) error {
	if resp.Err != "" {
		return fmt.Errorf("server error %q", resp.Err)
	}
	if rs.Message != resp.Message {
		return fmt.Errorf("message %q, twin %q", resp.Message, rs.Message)
	}
	if rs.Message != "" {
		return nil
	}
	if !reflect.DeepEqual(rs.Columns, resp.Columns) {
		return fmt.Errorf("columns %v, twin %v", resp.Columns, rs.Columns)
	}
	if len(rs.Rows) != len(resp.Rows) {
		return fmt.Errorf("%d rows, twin %d", len(resp.Rows), len(rs.Rows))
	}
	for i, row := range rs.Rows {
		if len(row) != len(resp.Rows[i]) {
			return fmt.Errorf("row %d: %d cells, twin %d", i, len(resp.Rows[i]), len(row))
		}
		for j, v := range row {
			if resp.Rows[i][j] != strconv.FormatInt(v, 10) {
				return fmt.Errorf("row %d cell %d: %s, twin %d", i, j, resp.Rows[i][j], v)
			}
		}
	}
	return nil
}
