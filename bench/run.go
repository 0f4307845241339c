package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crackdb/internal/server"
)

// env is what one invocation fixes for every run it makes.
type env struct {
	ws      *workspace
	sz      sizes
	seconds time.Duration // measured phase of the fixed-duration workloads
	clients int           // closed-loop connections: min(nproc, 4)
	setups  int           // set-ups per run; setup_s is their median
	corrupt bool          // tests only: see config.corrupt
}

// outcome is everything one child-process run observed. End-to-end and
// per-layer metrics are both derived from it (see report.go); the
// in-process ladder adds the layer timings only a traced run has.
type outcome struct {
	sp        spec
	seed      int64
	attempted int
	failed    int
	firstErr  error

	setupS    []float64
	measuredS float64
	stmts     int // statements completed inside the measured phases

	// One value per server instance the phase was split over.
	instQPS, instCountP50 []float64

	countMS, rowsMS, insertMS []float64
	countAt                   []float64 // start of each count, seconds into the phase (durable_mixed)

	epochS      [2][]float64 // cold_crack: wall time per epoch, [random, sequential]
	firstStmtMS []float64    // cold_crack: first statement of each epoch

	ckptS     []float64    // durable_mixed: client-observed /save durations
	saves     [][2]float64 // their [start, end] offsets into the phase
	recoveryS []float64    // one per instance
	diskBytes int64        // everything under the data dir at the kill
	disk      diskUse
	userBytes int64 // 8 B × cells the store holds (tapestry + acked inserts)
	ackedRows int64
	lostAcked int64
	killedDir string    // copy of the data dir as SIGKILL left it (traced runs)
	childUS   []float64 // traced runs: the ladder stream's latencies against the child, µs
	preRows   int64     // traced durable runs: rows the ladder stream inserted before the phase

	pingUS    []float64
	prom      promSnap // /metrics deltas over the measured phase
	promEnd   promSnap // /metrics at the end of it
	cpuMS     float64  // child utime+stime over the measured phase
	peakRSSMB float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// clientRec is one connection's private record; merged after the phase.
type clientRec struct {
	attempted, failed         int
	firstErr                  error
	stmts                     int
	countMS, rowsMS, insertMS []float64
	countAt                   []float64
	samples                   []sample
	seen                      int // statements answered, for twin sampling
}

// observe checks one answer against the oracle and files its latency.
// inPhase is false for statements outside the measured phase (they are
// still checked, but not timed into the metrics).
func (r *clientRec) observe(st *stmt, resp *server.Response, err error, d time.Duration, at float64, inPhase bool, n int64) {
	r.attempted++
	if err == nil {
		err = st.check(resp, n)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	if r.seen%twinEvery == 0 && len(r.samples) < twinMax {
		r.samples = append(r.samples, sample{st: st, resp: resp})
	}
	r.seen++
	if !inPhase {
		return
	}
	r.stmts++
	ms := float64(d.Nanoseconds()) / 1e6
	switch st.kind {
	case kindCount:
		r.countMS = append(r.countMS, ms)
		r.countAt = append(r.countAt, at)
	case kindRows:
		r.rowsMS = append(r.rowsMS, ms)
	case kindInsert:
		r.insertMS = append(r.insertMS, ms)
	}
}

func (o *outcome) merge(recs []*clientRec) (samples []sample) {
	for _, r := range recs {
		o.attempted += r.attempted
		o.failed += r.failed
		if o.firstErr == nil {
			o.firstErr = r.firstErr
		}
		o.stmts += r.stmts
		o.countMS = append(o.countMS, r.countMS...)
		o.countAt = append(o.countAt, r.countAt...)
		o.rowsMS = append(o.rowsMS, r.rowsMS...)
		o.insertMS = append(o.insertMS, r.insertMS...)
		samples = append(samples, r.samples...)
	}
	return samples
}

// scrape reads /metrics over the frame protocol.
func scrape(cl *server.Client) (promSnap, error) {
	resp, err := cl.Exec("/metrics")
	if err != nil {
		return nil, err
	}
	lines := make([]string, len(resp.Rows))
	for i, row := range resp.Rows {
		lines[i] = row[0]
	}
	return parseProm(lines)
}

// setUp brings a server to the state the measured phase starts from:
// process started, /ping answered, tapestry loaded, pools applied. The
// returned duration is setup_s; compilation happened earlier, in
// newWorkspace.
func (e *env) setUp(sp spec, in *inputs, dataDir string) (*child, *server.Client, float64, error) {
	t0 := time.Now()
	c, err := e.ws.start(sp.flags(dataDir)...)
	if err != nil {
		return nil, nil, 0, err
	}
	ctl, err := server.Dial(c.addr)
	if err == nil {
		_, err = ctl.Exec(fmt.Sprintf("/tapestry %s %d %d %d", table, in.sz.rows, sp.alpha, in.seed))
		if err == nil && sp.warm {
			err = applyWarmup(ctl, in)
		}
		if err != nil {
			ctl.Close()
		}
	}
	if err != nil {
		c.kill()
		return nil, nil, 0, err
	}
	return c, ctl, time.Since(t0).Seconds(), nil
}

// applyWarmup sends the warm-up counts through pipelined windows (the
// fast path; which path installs a cut does not change the cut) and
// checks each answer.
func applyWarmup(ctl *server.Client, in *inputs) error {
	warm := in.warmup()
	texts := make([]string, 0, in.sz.window)
	for i := 0; i < len(warm); i += in.sz.window {
		j := min(i+in.sz.window, len(warm))
		texts = texts[:0]
		for k := i; k < j; k++ {
			texts = append(texts, warm[k].text)
		}
		resps, err := ctl.DoBatch(texts)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for k, resp := range resps {
			if err := warm[i+k].check(resp, int64(in.sz.rows)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// run executes one workload once. The measured phase is split evenly
// over e.setups server instances, each set up from scratch: a fresh
// process lands in its own scheduling and memory-placement luck, which
// on a small shared box moves throughput by several percent for the
// life of the process, and the median over instances is steadier than
// any one of them (the same set-ups give setup_s its median). cold_crack
// is a fixed script, not a duration: every instance runs it once.
//
// A traced run makes one set-up, replays the ladder's stream against the
// child, single client, before the phase (the reference for
// trace.inproc_vs_child_ratio), and on a durable workload keeps a copy
// of the data dir as the SIGKILL left it for the boot probe.
func (e *env) run(sp spec, seed int64, traced bool) (*outcome, error) {
	in := newInputs(e.sz, seed)
	o := &outcome{sp: sp, seed: seed, prom: promSnap{}}
	var samples []sample
	for i := 0; i < e.setups; i++ {
		got, err := e.instance(sp, in, o, e.seconds/time.Duration(e.setups), traced)
		if err != nil {
			return nil, err
		}
		samples = append(samples, got...)
	}
	if sp.warm && !sp.durable && o.prom["crackdb_cracks_total"] != 0 {
		o.fail(fmt.Errorf("%s: %v cracks during the measured phase; the store was not converged, the run is invalid",
			sp.name, o.prom["crackdb_cracks_total"]))
	}
	if len(samples) > twinMax {
		samples = samples[:twinMax]
	}
	bad, terr := twinCheck(samples, e.sz.rows, sp.alpha, seed)
	o.attempted += len(samples)
	for i := 0; i < bad; i++ {
		o.fail(terr)
	}
	return o, nil
}

// instance sets one server up, measures one phase on it and tears it
// down.
func (e *env) instance(sp spec, in *inputs, o *outcome, phase time.Duration, traced bool) ([]sample, error) {
	dataDir := ""
	if sp.durable {
		d, err := e.ws.tempDir("data")
		if err != nil {
			return nil, err
		}
		dataDir = d
	}
	c, ctl, took, err := e.setUp(sp, in, dataDir)
	if err != nil {
		return nil, err
	}
	// durableMixed swaps c for the recovered child; stop whichever is last.
	defer func() {
		ctl.Close()
		c.stop()
	}()
	o.setupS = append(o.setupS, took)
	if e.corrupt {
		in.pool[0].hi++ // the text still asks for the old range; the oracle now expects one more
		defer func() { in.pool[0].hi-- }()
	}

	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := ctl.Exec("/ping"); err != nil {
			return nil, err
		}
		o.pingUS = append(o.pingUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if traced {
		units, err := in.ladderUnits(sp, e.clients)
		if err != nil {
			return nil, err
		}
		if sp.name != "cold_crack" { // its measured phase is this stream already; see below
			if o.childUS, err = childPass(ctl, units, int64(e.sz.rows), o); err != nil {
				return nil, err
			}
		}
		for i := range units {
			if units[i].kind == kindInsert {
				o.preRows += int64(len(units[i].st.rows))
			}
		}
	}

	ph := &phaseMarks{phase: phase, stmts0: o.stmts, counts0: len(o.countMS)}
	if ph.before, err = scrape(ctl); err != nil {
		return nil, err
	}
	if ph.cpu0, _, err = c.procStats(); err != nil {
		return nil, err
	}

	var samples []sample
	switch sp.name {
	case "cold_crack":
		samples, err = e.coldCrack(o, in, c, ph)
	case "steady_scalar":
		samples, err = e.fixedDuration(o, in, c, ph, scalarClient)
	case "steady_pipelined":
		samples, err = e.fixedDuration(o, in, c, ph, pipelinedClient)
	case "durable_mixed":
		samples, c, err = e.durableMixed(o, in, c, ctl, dataDir, ph, traced)
	default:
		err = fmt.Errorf("no runner for workload %q", sp.name)
	}
	if err != nil {
		return nil, err
	}
	if traced && sp.name == "cold_crack" {
		// The ladder stream is the head of epochs 0 and 1, which the
		// measured phase just sent, single client, to virgin columns.
		half, k := e.sz.ladder/2, e.sz.epochStmts
		for _, ms := range append(append([]float64(nil), o.countMS[:half]...), o.countMS[k:k+half]...) {
			o.childUS = append(o.childUS, ms*1e3)
		}
	}
	if !sp.durable { // durableMixed closes its phase itself, before the kill
		if err := ph.closePhase(c, ctl); err != nil {
			return nil, err
		}
	}
	o.file(ph)
	return samples, nil
}

// phaseMarks is what one instance's measured phase is bracketed by.
type phaseMarks struct {
	phase   time.Duration
	elapsed float64 // seconds the phase took; set by the runner
	stmts0  int     // o.stmts when the phase began
	counts0 int     // len(o.countMS) when the phase began

	before, after promSnap // /metrics
	cpu0, cpu1    float64  // child utime+stime, ms
	rss           float64  // child VmHWM, MB
}

// closePhase reads the counters that end one instance's measured
// phase. The child must still be alive.
func (ph *phaseMarks) closePhase(c *child, ctl *server.Client) (err error) {
	if ph.after, err = scrape(ctl); err != nil {
		return err
	}
	ph.cpu1, ph.rss, err = c.procStats()
	return err
}

// file adds one instance's phase to the outcome, once its statements
// are merged in: counter deltas, and the instance's throughput and
// count median.
func (o *outcome) file(ph *phaseMarks) {
	for k, v := range ph.after.delta(ph.before) {
		o.prom[k] += v
	}
	o.promEnd = ph.after
	o.cpuMS += ph.cpu1 - ph.cpu0
	if ph.rss > o.peakRSSMB {
		o.peakRSSMB = ph.rss
	}
	stmts := float64(o.stmts - ph.stmts0)
	o.measuredS += ph.elapsed
	o.instQPS = append(o.instQPS, ratio(stmts, ph.elapsed))
	if p50, ok := percentile(sortedCopy(o.countMS[ph.counts0:]), 0.5); ok {
		o.instCountP50 = append(o.instCountP50, p50)
	}
}

// clientFunc drives one connection until the deadline.
type clientFunc func(in *inputs, id int, cl *server.Client, rec *clientRec, start, deadline time.Time)

func scalarClient(in *inputs, id int, cl *server.Client, rec *clientRec, start, deadline time.Time) {
	rng := in.clientRNG(id)
	n := int64(in.sz.rows)
	for {
		st := in.scalarNext(rng)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		resp, err := cl.Do(st.text)
		rec.observe(st, resp, err, time.Since(t0), t0.Sub(start).Seconds(), true, n)
		if err != nil {
			return // transport is gone; the failure is counted
		}
	}
}

func pipelinedClient(in *inputs, id int, cl *server.Client, rec *clientRec, start, deadline time.Time) {
	rng := in.clientRNG(id)
	n := int64(in.sz.rows)
	p := cl.Pipeline()
	win := make([]*stmt, in.sz.window)
	sent := make([]time.Time, in.sz.window)
	for time.Now().Before(deadline) {
		for i := range win {
			win[i] = in.poolNext(rng)
			sent[i] = time.Now()
			if err := p.Send(win[i].text); err != nil {
				rec.observe(win[i], nil, err, 0, 0, true, n)
				return
			}
		}
		if err := p.Flush(); err != nil {
			rec.observe(win[0], nil, err, 0, 0, true, n)
			return
		}
		for i := range win {
			resp, err := p.Recv()
			rec.observe(win[i], resp, err, time.Since(sent[i]), sent[i].Sub(start).Seconds(), true, n)
			if err != nil {
				return
			}
		}
	}
}

// fixedDuration runs e.clients closed-loop connections for the phase.
func (e *env) fixedDuration(o *outcome, in *inputs, c *child, ph *phaseMarks, fn clientFunc) ([]sample, error) {
	conns := make([]*server.Client, e.clients)
	for i := range conns {
		cl, err := server.Dial(c.addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		conns[i] = cl
	}
	recs := make([]*clientRec, e.clients)
	start := time.Now()
	deadline := start.Add(ph.phase)
	var wg sync.WaitGroup
	for i := range conns {
		recs[i] = &clientRec{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(in, i, conns[i], recs[i], start, deadline)
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	return o.merge(recs), nil
}

// coldCrack runs one pair of epochs on a fresh server: sz.epochStmts
// synchronous counts from the random stream on c0, then as many from the
// sequential stream on c1, each column untouched until then. An epoch is
// a fixed amount of work — the cumulative cost at K statements is the
// quantity the paper's curve is about — so the phase length plays no
// part; a run makes one pair per instance.
func (e *env) coldCrack(o *outcome, in *inputs, c *child, ph *phaseMarks) ([]sample, error) {
	cl, err := server.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rec := &clientRec{}
	n := int64(in.sz.rows)
	start := time.Now()
	for epoch := 0; epoch < 2; epoch++ {
		stream, err := in.epochStream(epoch)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := range stream {
			st := &stream[i]
			s0 := time.Now()
			resp, err := cl.Do(st.text)
			d := time.Since(s0)
			rec.observe(st, resp, err, d, s0.Sub(start).Seconds(), true, n)
			if err != nil {
				return nil, fmt.Errorf("cold_crack epoch %d: %w", epoch, err)
			}
			if i == 0 {
				o.firstStmtMS = append(o.firstStmtMS, float64(d.Nanoseconds())/1e6)
			}
		}
		o.epochS[epoch] = append(o.epochS[epoch], time.Since(t0).Seconds())
	}
	ph.elapsed = time.Since(start).Seconds()
	return o.merge([]*clientRec{rec}), nil
}

// durableMixed: e.clients connections alternate one fsynced insert with
// three pool counts while a control connection checkpoints every
// sz.saveRows acked rows; at the deadline the child is SIGKILLed with
// clients still in flight, restarted on the same directory, and timed
// until COUNT(*) shows every acked row. It returns the recovered child
// in place of the killed one.
func (e *env) durableMixed(o *outcome, in *inputs, c *child, ctl *server.Client, dataDir string,
	ph *phaseMarks, keepKilled bool) ([]sample, *child, error) {
	n := int64(in.sz.rows)
	conns := make([]*server.Client, e.clients)
	for i := range conns {
		cl, err := server.Dial(c.addr)
		if err != nil {
			return nil, c, err
		}
		defer cl.Close()
		conns[i] = cl
	}
	var sentRows, ackedRows atomic.Int64
	sentRows.Store(o.preRows)
	ackedRows.Store(o.preRows)
	var killing atomic.Bool
	stopSaves := make(chan struct{})
	recs := make([]*clientRec, e.clients)
	start := time.Now()
	deadline := start.Add(ph.phase)
	// Offsets into the phase (count starts, /save intervals) are only
	// ever compared within one instance; spacing instances far apart
	// keeps them from overlapping once merged.
	since := func(t time.Time) float64 { return float64(len(o.setupS))*1e6 + t.Sub(start).Seconds() }

	var wg sync.WaitGroup
	for i := range conns {
		recs[i] = &clientRec{}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng, rec, cl := in.clientRNG(id), recs[id], conns[id]
			var seq int64
			do := func(st *stmt) bool {
				t0 := time.Now()
				resp, err := cl.Do(st.text)
				if err != nil && killing.Load() {
					return false // cut off by the SIGKILL: sent, never acked, not a failure
				}
				if st.kind == kindInsert && err == nil && resp.Err == "" {
					ackedRows.Add(int64(len(st.rows)))
				}
				rec.observe(st, resp, err, time.Since(t0), since(t0), t0.Before(deadline), n)
				return err == nil
			}
			for { // keeps going past the deadline so the kill lands on live traffic
				ins := in.insertNext(id, &seq, o.sp.alpha)
				sentRows.Add(int64(len(ins.rows)))
				if !do(&ins) {
					return
				}
				for k := 0; k < 3; k++ {
					if !do(in.poolNext(rng)) {
						return
					}
				}
			}
		}(i)
	}

	// The control connection: /save whenever sz.saveRows more rows are
	// acked, and beside each checkpoint one count over the inserted key
	// space, bracketed by the acked and sent counters.
	saveDone := make(chan error, 1)
	go func() {
		next := int64(in.sz.saveRows)
		above := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE c0 > %d", table, n)
		for {
			select {
			case <-stopSaves:
				saveDone <- nil
				return
			case <-time.After(time.Millisecond):
			}
			if ackedRows.Load() < next {
				continue
			}
			next += int64(in.sz.saveRows)
			t0 := time.Now()
			if _, err := ctl.Exec("/save"); err != nil {
				saveDone <- fmt.Errorf("/save: %w", err)
				return
			}
			t1 := time.Now()
			o.ckptS = append(o.ckptS, t1.Sub(t0).Seconds())
			o.saves = append(o.saves, [2]float64{since(t0), since(t1)})
			lo := ackedRows.Load()
			got, err := ctl.Count(above)
			hi := sentRows.Load()
			o.attempted++
			if err != nil || got < lo || got > hi {
				o.fail(fmt.Errorf("%s answered %d (%v), want between %d acked and %d sent", above, got, err, lo, hi))
			}
		}
	}()

	time.Sleep(time.Until(deadline))
	ph.elapsed = ph.phase.Seconds()
	close(stopSaves)
	if err := <-saveDone; err != nil {
		return nil, c, err
	}
	if err := ph.closePhase(c, ctl); err != nil {
		return nil, c, err
	}
	killing.Store(true)
	killedAt := time.Now()
	c.kill()
	wg.Wait()
	acked, sent := ackedRows.Load(), sentRows.Load()
	o.diskBytes, o.disk = dirBytes(dataDir), classifyDataDir(dataDir) // the last instance's stand
	o.userBytes, o.ackedRows = 8*int64(o.sp.alpha)*(n+acked), acked
	if keepKilled {
		var err error
		if o.killedDir, err = e.ws.tempDir("killed"); err != nil {
			return nil, c, err
		}
		if msg, err := exec.Command("cp", "-r", dataDir+"/.", o.killedDir).CombinedOutput(); err != nil {
			return nil, c, fmt.Errorf("copying the killed data dir: %v: %s", err, msg)
		}
	}

	// Recovery: same flags, same directory, no reload. The clock runs
	// from the kill to the first correct COUNT(*).
	nc, err := e.ws.start(o.sp.flags(dataDir)...)
	if err != nil {
		return nil, c, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	rcl, err := server.Dial(nc.addr)
	if err != nil {
		return nil, nc, err
	}
	defer rcl.Close()
	got, err := rcl.Count("SELECT COUNT(*) FROM " + table)
	o.recoveryS = append(o.recoveryS, time.Since(killedAt).Seconds())
	o.attempted++
	switch {
	case err != nil:
		o.fail(fmt.Errorf("COUNT(*) after recovery: %w", err))
	case got < n+acked:
		o.lostAcked += n + acked - got
		o.fail(fmt.Errorf("recovery lost %d acked rows: COUNT(*) = %d, want at least %d", n+acked-got, got, n+acked))
	case got > n+sent:
		o.fail(fmt.Errorf("recovery invented rows: COUNT(*) = %d, only %d were ever sent", got, n+sent))
	}
	return o.merge(recs), nc, nil
}

// diskUse splits a data dir by what the bytes are for.
type diskUse struct {
	wal    int64 // wal.log plus retained archives
	full   int64 // store/: the base image
	delta  int64 // delta-NNNNNN/: differential elements
	deltas int
}

func classifyDataDir(dir string) diskUse {
	var u diskUse
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		size := dirBytes(filepath.Join(dir, ent.Name()))
		switch {
		case strings.HasPrefix(ent.Name(), "wal.log"):
			u.wal += size
		case ent.Name() == "store":
			u.full += size
		case strings.HasPrefix(ent.Name(), "delta-"):
			u.delta += size
			u.deltas++
		}
	}
	return u
}
