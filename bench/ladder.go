package main

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/expr"
	"crackdb/internal/server"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
)

// The layer ladder. The same statement stream is fed, single client, to
// identical twin stacks at five entry depths:
//
//	wire     server.Client.Do over loopback to an in-process server.Serve
//	sql      sql.Engine.Exec
//	shard    shard.Store methods
//	crackdb  each shard's crackdb.Store methods, one shard after another
//	core     core.Column on each shard's raw key vector
//
// Cracking is deterministic in the stream, so the twins evolve the same
// cuts (checked: same answers, same piece counts), and a layer's self
// time for a statement is its depth's time minus the next depth's.
// Where a depth fans out over shards the router runs them in parallel,
// so the depth's time is its slowest shard. Everything here runs in the
// harness process, on the harness's files; no number from it feeds an
// end-to-end metric.

// span is one timed call into a layer's public function.
type span struct {
	Workload string `json:"workload"`
	Twin     string `json:"twin"` // entry depth of the stack that made the call
	Unit     int    `json:"stmt"` // statement (or pipelined window) the call served
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the twin's stream began
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps one twin's spans in memory.
type recorder struct {
	workload, twin string
	t0             time.Time
	spans          []span
}

// time runs fn as one span and returns its duration in microseconds.
func (r *recorder) time(unit int, name, parent string, fn func()) float64 {
	s := time.Now()
	fn()
	e := time.Now()
	r.spans = append(r.spans, span{r.workload, r.twin, unit, name, parent, s.Sub(r.t0).Nanoseconds(), e.Sub(r.t0).Nanoseconds()})
	return float64(e.Sub(s).Nanoseconds()) / 1e3
}

// unit is one step of a ladder stream: a statement, or for the
// pipelined workload one window of counts.
type unit struct {
	kind        stmtKind
	st          *stmt
	win         []*stmt
	afterInsert bool // a count directly after an insert: pays the pending merge
}

// ladderUnits is the stream every depth replays.
func (in *inputs) ladderUnits(sp spec, client int) ([]unit, error) {
	n := in.sz.ladder
	units := make([]unit, 0, n)
	rng := in.clientRNG(client)
	switch sp.name {
	case "cold_crack": // the head of a random epoch, then of a sequential one
		for epoch := 0; epoch < 2; epoch++ {
			stream, err := in.epochStream(epoch)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n/2 && i < len(stream); i++ {
				units = append(units, unit{kind: kindCount, st: &stream[i]})
			}
		}
	case "steady_scalar":
		for i := 0; i < n; i++ {
			st := in.scalarNext(rng)
			units = append(units, unit{kind: st.kind, st: st})
		}
	case "steady_pipelined":
		for i := 0; i < n; i++ {
			win := make([]*stmt, in.sz.window)
			for j := range win {
				win[j] = in.poolNext(rng)
			}
			units = append(units, unit{kind: kindWindow, win: win})
		}
	case "durable_mixed":
		var seq int64
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				ins := in.insertNext(client, &seq, sp.alpha)
				units = append(units, unit{kind: kindInsert, st: &ins})
			} else {
				units = append(units, unit{kind: kindCount, st: in.poolNext(rng), afterInsert: i%4 == 1})
			}
		}
	}
	return units, nil
}

// childPass replays the ladder stream, single client, against the child
// process: the reference the in-process wire depth is compared with.
func childPass(cl *server.Client, units []unit, n int64, o *outcome) ([]float64, error) {
	us := make([]float64, len(units))
	p := cl.Pipeline()
	for i := range units {
		u := &units[i]
		t0 := time.Now()
		if u.kind != kindWindow {
			resp, err := cl.Do(u.st.text)
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			if err != nil {
				return nil, err
			}
			o.attempted++
			if err := u.st.check(resp, n); err != nil {
				o.fail(err)
			}
			continue
		}
		for _, st := range u.win {
			if err := p.Send(st.text); err != nil {
				return nil, err
			}
		}
		if err := p.Flush(); err != nil {
			return nil, err
		}
		for _, st := range u.win {
			resp, err := p.Recv()
			if err != nil {
				return nil, err
			}
			o.attempted++
			if err := st.check(resp, n); err != nil {
				o.fail(err)
			}
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return us, nil
}

// depthRun is what one twin recorded: per unit, the time on the
// critical path and the answer.
type depthRun struct {
	twin     string
	crit     []float64 // µs; the slowest shard where the depth fans out
	mean     []float64 // µs; mean over shards (fan-out depths only)
	rowsPart []float64 // µs; rows units: the Rows() part of crit
	answers  []int64
	pieces   int // pieces of the queried columns, summed over shards, at the end
}

// newStack builds an in-process copy of what the child serves, the way
// cracksrv builds it for this workload: options, autotune,
// observability, tapestry, pools applied.
func (e *env) newStack(sp spec, in *inputs) (*shard.Store, error) {
	opts := shard.Options{Shards: shards}
	var store *shard.Store
	if sp.durable {
		dir, err := e.ws.tempDir("twin")
		if err != nil {
			return nil, err
		}
		st, _, err := shard.OpenDurable(dir, opts)
		if err != nil {
			return nil, err
		}
		st.SetCheckpointDelta(true)
		store = st
	} else {
		store = shard.New(opts)
	}
	if sp.autotune {
		store.EnableAutotune(tuner.Config{})
	}
	store.EnableObservability(256) // cracksrv's -tracesample default
	if err := store.LoadTapestry(table, in.sz.rows, sp.alpha, in.seed); err != nil {
		return nil, err
	}
	if sp.warm {
		warm := ptrs(in.warmup())
		for i := 0; i < len(warm); i += in.sz.window {
			j := min(i+in.sz.window, len(warm))
			if _, err := store.CountBatch(table, "c0", batchRanges(warm[i:j])); err != nil {
				return nil, err
			}
		}
	}
	return store, nil
}

func ptrs(sts []stmt) []*stmt {
	out := make([]*stmt, len(sts))
	for i := range sts {
		out[i] = &sts[i]
	}
	return out
}

// batchRanges folds a window the way the server's pipelined path does.
func batchRanges(win []*stmt) []crackdb.Range {
	out := make([]crackdb.Range, len(win))
	for i, st := range win {
		out[i] = crackdb.Range{Low: st.lo, High: st.hi - 1}
	}
	return out
}

// pieces sums the piece counts of the given columns over all shards.
func pieces(store *shard.Store, cols []string) int {
	total := 0
	for i := 0; i < store.ShardCount(); i++ {
		for _, col := range cols {
			if cs, err := store.Shard(i).Stats(table, col); err == nil {
				total += cs.Pieces
			}
		}
	}
	return total
}

// flip is one tuner decision observed on the crackdb twin, replayed on
// the core twin so its bare columns crack under the same strategies.
type flip struct {
	unit, shard int
	col, name   string
}

// ladderResult is a traced run's layer numbers for one workload.
type ladderResult struct {
	metrics   metricSet
	attempted int
	failed    int
	firstErr  error
	spans     []span
	tables    []ladderTable
}

func (l *ladderResult) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// depthCtor prepares one entry depth on a stack; stop undoes it.
type depthCtor func(store *shard.Store) (exec execFunc, stop func(), err error)

// ladder runs the five depths (plus the Store.Count twin) for the
// workload o ran, and derives the per-layer time metrics.
func (e *env) ladder(o *outcome) (*ladderResult, error) {
	sp := o.sp
	in := newInputs(e.sz, o.seed)
	units, err := in.ladderUnits(sp, e.clients)
	if err != nil {
		return nil, err
	}
	res := &ladderResult{metrics: metricSet{}}
	cols := queriedColumns(units)

	type depthSpec struct {
		twin string
		ctor depthCtor
	}
	var flips []flip
	depths := []depthSpec{
		{"wire", wireDepth},
		{"sql", sqlDepth},
		{"shard", shardDepth},
		{"crackdb", crackdbDepth(false, &flips)},
	}
	if sp.name == "cold_crack" || sp.name == "steady_scalar" { // where the planner path is the traffic
		depths = append(depths, depthSpec{"crackdb.count", crackdbDepth(true, nil)})
	}

	// A converged store does not change under reads, so the steady
	// workloads replay every depth on one stack (and the replay checks
	// that it really did not change); the others get a fresh twin per
	// depth.
	readOnly := sp.warm && !sp.durable
	var shared *shard.Store
	runs := map[string]*depthRun{}
	var walAppendUS float64
	for _, d := range depths {
		store := shared
		if store == nil {
			if store, err = e.newStack(sp, in); err != nil {
				return nil, err
			}
			if readOnly {
				shared = store
			}
		}
		exec, stop, err := d.ctor(store)
		if err != nil {
			return nil, err
		}
		before := pieces(store, cols)
		dr, spans, err := replay(sp.name, d.twin, units, exec)
		stop()
		if err != nil {
			return nil, err
		}
		if dr.pieces = pieces(store, cols); readOnly && dr.pieces != before {
			return nil, fmt.Errorf("%s depth cracked a converged store (%d → %d pieces)", d.twin, before, dr.pieces)
		}
		if sp.durable {
			if d.twin == "shard" {
				walAppendUS = walAppendMeanUS(store)
			}
			if err := store.CloseWAL(); err != nil {
				return nil, err
			}
		}
		runs[d.twin] = dr
		res.spans = append(res.spans, spans...)
	}

	// The core twin: bare columns over each shard's key vector. The
	// vectors are read from the base table, which cracking never
	// reorders, so the shared stack serves; otherwise a plain volatile
	// load does.
	src := shared
	if src == nil {
		plain := sp
		plain.warm, plain.durable = false, false
		if src, err = e.newStack(plain, in); err != nil {
			return nil, err
		}
	}
	coreExec, err := coreDepth(src, in, sp, cols, flips)
	if err != nil {
		return nil, err
	}
	dr, spans, err := replay(sp.name, "core", units, coreExec)
	if err != nil {
		return nil, err
	}
	runs["core"] = dr
	res.spans = append(res.spans, spans...)

	// Twins must agree: same answers everywhere, and the same pieces on
	// the depths that enter through the router. Below it the twins are
	// fed the same statements but not the same physical history — the
	// crackdb twin splits an insert evenly where the router hashes it,
	// Store.Count keys its upper cut differently, and the core twin's
	// stochastic pivots draw from its own seeds.
	wire := runs["wire"]
	for twin, dr := range runs {
		res.attempted++
		for i := range units {
			if dr.answers[i] != wire.answers[i] {
				res.fail(fmt.Errorf("ladder: %s twin answered %d on statement %d, wire twin %d", twin, dr.answers[i], i, wire.answers[i]))
				break
			}
		}
		throughRouter := twin == "sql" || twin == "shard" || (twin == "crackdb" && !sp.durable)
		if throughRouter && dr.pieces != wire.pieces {
			res.fail(fmt.Errorf("ladder: %s twin ended with %d pieces, wire twin %d", twin, dr.pieces, wire.pieces))
		}
	}
	// And the wire twin must be right, not merely agreed with.
	res.attempted += len(units)
	for i := range units {
		if want := units[i].expected(int64(in.sz.rows)); wire.answers[i] != want {
			res.fail(fmt.Errorf("ladder: wire twin answered %d on statement %d, want %d", wire.answers[i], i, want))
			break
		}
	}

	res.derive(units, runs, walAppendUS, o.childUS)
	return res, nil
}

// queriedColumns lists the columns a stream's ranges touch.
func queriedColumns(units []unit) []string {
	seen := map[string]bool{}
	var cols []string
	add := func(st *stmt) {
		if st.kind != kindInsert && !seen[st.col] {
			seen[st.col] = true
			cols = append(cols, st.col)
		}
	}
	for i := range units {
		if units[i].kind == kindWindow {
			for _, st := range units[i].win {
				add(st)
			}
		} else {
			add(units[i].st)
		}
	}
	return cols
}

// expected is the answer digest every depth must produce for the unit:
// a count, a row count, 0 for an insert, and for a window the
// position-weighted sum of its counts.
func (u *unit) expected(n int64) int64 {
	switch u.kind {
	case kindInsert:
		return 0
	case kindWindow:
		var sum int64
		for i, st := range u.win {
			sum += int64(i+1) * domainOverlap(st.lo, st.hi, n)
		}
		return sum
	default:
		return domainOverlap(u.st.lo, u.st.hi, n)
	}
}

// execFunc serves one unit at one depth, appending to dr.
type execFunc func(i int, u *unit, rec *recorder, dr *depthRun) error

// replay feeds the stream to one depth.
func replay(workload, twin string, units []unit, exec execFunc) (*depthRun, []span, error) {
	rec := &recorder{workload: workload, twin: twin, t0: time.Now()}
	dr := &depthRun{twin: twin}
	for i := range units {
		if err := exec(i, &units[i], rec, dr); err != nil {
			return nil, nil, fmt.Errorf("%s depth, statement %d: %w", twin, i, err)
		}
		if len(dr.crit) != i+1 || len(dr.answers) != i+1 {
			return nil, nil, fmt.Errorf("%s depth recorded nothing for statement %d", twin, i)
		}
	}
	return dr, rec.spans, nil
}

func (dr *depthRun) add(crit, mean, rowsPart float64, answer int64) {
	dr.crit = append(dr.crit, crit)
	dr.mean = append(dr.mean, mean)
	dr.rowsPart = append(dr.rowsPart, rowsPart)
	dr.answers = append(dr.answers, answer)
}

// wireDepth serves the stack from an in-process server on a loopback
// port and enters through the same client the end-to-end runs use.
func wireDepth(store *shard.Store) (execFunc, func(), error) {
	srv := server.New(store, nil)
	srv.EnableObservability(0, 256)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		srv.Shutdown(time.Second)
		<-served
		return nil, nil, err
	}
	stop := func() {
		cl.Close()
		srv.Shutdown(time.Second)
		<-served
	}
	p := cl.Pipeline()
	exec := func(i int, u *unit, rec *recorder, dr *depthRun) error {
		var answer int64
		var err error
		us := rec.time(i, "wire", "", func() {
			if u.kind != kindWindow {
				var resp *server.Response
				if resp, err = cl.Do(u.st.text); err == nil {
					answer, err = wireAnswer(u.st, resp)
				}
				return
			}
			for _, st := range u.win {
				if err = p.Send(st.text); err != nil {
					return
				}
			}
			if err = p.Flush(); err != nil {
				return
			}
			for k, st := range u.win {
				var resp *server.Response
				if resp, err = p.Recv(); err != nil {
					return
				}
				var c int64
				if c, err = wireAnswer(st, resp); err != nil {
					return
				}
				answer += int64(k+1) * c
			}
		})
		dr.add(us, 0, 0, answer)
		return err
	}
	return exec, stop, nil
}

func wireAnswer(st *stmt, resp *server.Response) (int64, error) {
	if resp.Err != "" {
		return 0, fmt.Errorf("%s: %s", st.text, resp.Err)
	}
	switch st.kind {
	case kindCount:
		return resp.Int64(0, 0)
	case kindRows:
		return int64(len(resp.Rows)), nil
	}
	return 0, nil
}

// sqlDepth enters at sql.Engine.Exec — or, for a pipelined window, at
// what the server runs in its place: ClassifyRangeCount per statement
// and one CountBatch.
func sqlDepth(store *shard.Store) (execFunc, func(), error) {
	eng := sql.NewEngineOn(store)
	exec := func(i int, u *unit, rec *recorder, dr *depthRun) error {
		var answer int64
		var err error
		us := rec.time(i, "sql", "wire", func() {
			if u.kind != kindWindow {
				var rs *sql.ResultSet
				if rs, err = eng.Exec(u.st.text); err != nil {
					return
				}
				switch u.st.kind {
				case kindCount:
					answer = rs.Rows[0][0]
				case kindRows:
					answer = int64(len(rs.Rows))
				}
				return
			}
			ranges := make([]crackdb.Range, len(u.win))
			for k, st := range u.win {
				rc, ok := sql.ClassifyRangeCount(st.text)
				if !ok {
					err = fmt.Errorf("%s: not classified as a range count", st.text)
					return
				}
				ranges[k] = rc.Range()
			}
			var counts []int
			if counts, err = store.CountBatch(table, "c0", ranges); err != nil {
				return
			}
			for k, c := range counts {
				answer += int64(k+1) * int64(c)
			}
		})
		dr.add(us, 0, 0, answer)
		return err
	}
	return exec, func() {}, nil
}

// shardDepth enters at the router's methods, the calls sql.Engine makes.
func shardDepth(store *shard.Store) (execFunc, func(), error) {
	exec := func(i int, u *unit, rec *recorder, dr *depthRun) error {
		var answer int64
		var rowsPart float64
		var err error
		us := rec.time(i, "shard", "sql", func() {
			switch u.kind {
			case kindCount:
				var c int
				c, err = store.CountWhere(table, u.st.conds()...)
				answer = int64(c)
			case kindRows:
				var r crackdb.Rows
				if r, err = store.SelectWhere(table, u.st.conds()...); err != nil {
					return
				}
				rowsPart = rec.time(i, "shard.rows", "shard", func() {
					var rows [][]int64
					rows, err = r.Rows("c0", "c1", "c2")
					answer = int64(len(rows))
				})
			case kindInsert:
				err = store.InsertRows(table, u.st.rows)
			case kindWindow:
				var counts []int
				if counts, err = store.CountBatch(table, "c0", batchRanges(u.win)); err != nil {
					return
				}
				for k, c := range counts {
					answer += int64(k+1) * int64(c)
				}
			}
		})
		dr.add(us, 0, rowsPart, answer)
		return err
	}
	return exec, func() {}, nil
}

// crackdbDepth enters at each shard's crackdb.Store, one shard after
// another, and reports the slowest: the router would have run them side
// by side. With viaCount, counts take Store.Count, the crack-on-select
// primitive, in place of the CountWhere planner path every scalar
// statement takes. flips, when not nil, collects the tuner's strategy
// changes for the core twin to replay.
func crackdbDepth(viaCount bool, flips *[]flip) depthCtor {
	return func(store *shard.Store) (execFunc, func(), error) {
		return crackdbExec(store, viaCount, flips), func() {}, nil
	}
}

func crackdbExec(store *shard.Store, viaCount bool, flips *[]flip) execFunc {
	n := store.ShardCount()
	name := "crackdb"
	if viaCount {
		name = "crackdb.count"
	}
	current := map[string]string{}
	return func(i int, u *unit, rec *recorder, dr *depthRun) error {
		var answer int64
		var worst, sum, worstRows float64
		for s := 0; s < n; s++ {
			st := store.Shard(s)
			var err error
			var rowsPart float64
			us := rec.time(i, name+"["+strconv.Itoa(s)+"]", "shard", func() {
				switch u.kind {
				case kindCount:
					var c int
					if viaCount {
						hi := u.st.hi - 1 // Store.Count takes an inclusive range
						c, err = st.Count(table, u.st.col, u.st.lo, hi)
					} else {
						c, err = st.CountWhere(table, u.st.conds()...)
					}
					answer += int64(c)
				case kindRows:
					var r *crackdb.Result
					if r, err = st.SelectWhere(table, u.st.conds()...); err != nil {
						return
					}
					rowsPart = rec.time(i, "crackdb.rows["+strconv.Itoa(s)+"]", name, func() {
						var rows [][]int64
						rows, err = r.Rows("c0", "c1", "c2")
						answer += int64(len(rows))
					})
				case kindInsert:
					// Any even split costs what the router's hash split costs;
					// keys above the tapestry domain never meet a pool range.
					err = st.InsertRows(table, everyNth(u.st.rows, s, n))
				case kindWindow:
					var counts []int
					if counts, err = st.CountBatch(table, "c0", batchRanges(u.win)); err != nil {
						return
					}
					for k, c := range counts {
						answer += int64(k+1) * int64(c)
					}
				}
			})
			if err != nil {
				return err
			}
			sum += us
			if us > worst {
				worst = us
			}
			if rowsPart > worstRows {
				worstRows = rowsPart
			}
			if flips != nil && u.kind == kindCount {
				if cs, err := st.Stats(table, u.st.col); err == nil && cs.Strategy != "" {
					key := u.st.col + "/" + strconv.Itoa(s)
					if prev, seen := current[key]; seen && prev != cs.Strategy {
						*flips = append(*flips, flip{unit: i, shard: s, col: u.st.col, name: cs.Strategy})
					}
					current[key] = cs.Strategy
				}
			}
		}
		dr.add(worst, sum/float64(n), worstRows, answer)
		return nil
	}
}

func everyNth(rows [][]int64, start, step int) [][]int64 {
	var out [][]int64
	for i := start; i < len(rows); i += step {
		out = append(out, rows[i])
	}
	return out
}

// coreDepth builds bare core.Columns over each shard's key vectors,
// read from a loaded stack no statement has touched, converges them
// when the workload's set-up does, and enters at Column.Count /
// SelectBatchRun / Insert. Row fetches reach core only as the range
// select that drives them.
func coreDepth(src *shard.Store, in *inputs, sp spec, cols []string, flips []flip) (execFunc, error) {
	n := src.ShardCount()
	columns := map[string][]*core.Column{}
	for _, col := range cols {
		columns[col] = make([]*core.Column, n)
		for s := 0; s < n; s++ {
			all, err := src.Shard(s).SelectWhere(table)
			if err != nil {
				return nil, err
			}
			rows, err := all.Rows(col)
			if err != nil {
				return nil, err
			}
			vals := make([]int64, len(rows))
			for i, r := range rows {
				vals[i] = r[0]
			}
			columns[col][s] = core.NewColumn(col, vals)
		}
	}
	exprRanges := func(win []*stmt) []expr.Range {
		out := make([]expr.Range, len(win))
		for i, st := range win {
			out[i] = expr.Range{Col: st.col, Low: st.lo, High: st.hi - 1, LowIncl: true, HighIncl: true}
		}
		return out
	}
	if sp.warm {
		warm := ptrs(in.warmup())
		for i := 0; i < len(warm); i += in.sz.window {
			j := min(i+in.sz.window, len(warm))
			for _, c := range columns["c0"] {
				c.SelectBatch(exprRanges(warm[i:j]), false, true)
			}
		}
	}
	nextFlip := 0
	run := core.AcquireBatchRun()
	return func(i int, u *unit, rec *recorder, dr *depthRun) error {
		for nextFlip < len(flips) && flips[nextFlip].unit < i {
			f := flips[nextFlip]
			nextFlip++
			columns[f.col][f.shard].SwapStrategy(func(old core.CrackStrategy) core.CrackStrategy {
				next, err := strategy.Handoff(old, f.name, in.seed+int64(f.shard))
				if err != nil {
					return old
				}
				return next
			})
		}
		var answer int64
		var worst, sum float64
		for s := 0; s < n; s++ {
			us := rec.time(i, "core["+strconv.Itoa(s)+"]", "crackdb", func() {
				switch u.kind {
				case kindCount, kindRows:
					c := columns[u.st.col][s]
					if u.st.incl {
						answer += int64(c.Count(u.st.lo, u.st.hi-1, true, true))
					} else {
						answer += int64(c.Count(u.st.lo, u.st.hi, true, false))
					}
				case kindInsert:
					for _, row := range everyNth(u.st.rows, s, n) {
						columns["c0"][s].Insert(row[0])
					}
				case kindWindow:
					columns["c0"][s].SelectBatchRun(exprRanges(u.win), false, true, run)
					for k, a := range run.Answers {
						answer += int64(k+1) * int64(a.N)
					}
				}
			})
			sum += us
			if us > worst {
				worst = us
			}
		}
		dr.add(worst, sum/float64(n), 0, answer)
		return nil
	}, nil
}
