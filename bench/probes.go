package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// Micro-probes: single calls into one layer's public function, timed in
// the harness process. They give the floors the ladder's differences
// sit on (parse alone, classify alone, one sort, one fsynced append).

// timeEach returns the median microseconds per call over n samples of
// reps back-to-back calls each: reps > 1 lifts sub-microsecond calls
// above the clock's resolution.
func timeEach(n, reps int, fn func(i int)) metric {
	us := make([]float64, n)
	for s := range us {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn(s*reps + r)
		}
		us[s] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
	}
	return metric{median(us), "us", n}
}

// probes measures the layer floors that do not depend on the workload's
// traffic, plus, for a durable run, the boot of the killed data dir.
func (e *env) probes(o *outcome) (metricSet, error) {
	in := newInputs(e.sz, o.seed)
	m := metricSet{}

	text := func(i int) string { return in.pool[i%len(in.pool)].text }
	m["sql.parse_us"] = timeEach(200, 32, func(i int) {
		if _, err := sql.Parse(text(i)); err != nil {
			panic(err) // a generated statement that does not parse is a harness bug
		}
	})
	m["sql.classify_us"] = timeEach(200, 32, func(i int) {
		if _, ok := sql.ClassifyRangeCount(text(i)); !ok {
			panic("pool statement not classified as a range count")
		}
	})

	// core.SortRows on what one row fetch merges: fetch-width rows of
	// three columns, in the shuffled order shards return them.
	width := int(in.fetch[0].hi - in.fetch[0].lo)
	rng := rand.New(rand.NewSource(o.seed))
	sets := make([][][]int64, 200)
	for s := range sets {
		rows := make([][]int64, width)
		for i, p := range rng.Perm(width) {
			rows[i] = []int64{int64(p), rng.Int63(), rng.Int63()}
		}
		sets[s] = rows
	}
	m["core.sortrows_us"] = timeEach(len(sets), 1, func(i int) { core.SortRows(sets[i]) })

	// One appender, one 16-row record per Append, on a scratch log: what
	// an acked insert pays the device before anything else happens.
	dir, err := e.ws.tempDir("wal")
	if err != nil {
		return nil, err
	}
	wal, err := durable.Create(filepath.Join(dir, "wal.log"), 0)
	if err != nil {
		return nil, err
	}
	var seq int64
	recs := make([]durable.Record, 200)
	for i := range recs {
		ins := in.insertNext(0, &seq, 2)
		recs[i] = durable.Record{Kind: durable.KindInsert, Table: table, Rows: ins.rows}
	}
	var appendErr error
	m["durable.append_us"] = timeEach(len(recs), 1, func(i int) {
		if _, err := wal.Append(recs[i]); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if err := wal.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return nil, fmt.Errorf("scratch WAL: %w", appendErr)
	}

	m["durable.boot_ms"] = metric{0, "ms", 0}
	m["durable.replayed_records"] = metric{0, "count", 0}
	if o.killedDir != "" {
		t0 := time.Now()
		st, info, err := shard.OpenDurable(o.killedDir, shard.Options{Shards: shards})
		if err != nil {
			return nil, fmt.Errorf("booting the killed data dir in process: %w", err)
		}
		m["durable.boot_ms"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e6, "ms", 1}
		m["durable.replayed_records"] = metric{float64(info.Replayed), "count", 0}
		if err := st.CloseWAL(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
