package crackdb

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"crackdb/internal/core"
	"crackdb/internal/workload"
)

// The planner's budget as standing assertions (ROADMAP: acceptance gates
// as plain go test). On a converged column a scalar COUNT through the
// planner is two index probes like Store.Count, so it may cost a small
// constant number of allocations — whatever the answer size, the table
// width or the number of pieces — and at most ten times Store.Count's
// wall time (bench's crackdb.planner_overhead_ratio < 10).

// convergedStore returns a width-column tapestry of n rows whose c0 has
// been cracked by a pool of ranges until batches stop cracking, and the
// pool.
func convergedStore(t testing.TB, n, width, poolSize int) (*Store, []Range) {
	t.Helper()
	s := New()
	if err := s.LoadTapestry("t", n, width, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pool := make([]Range, poolSize)
	for i := range pool {
		lo := 1 + rng.Int63n(int64(n))
		pool[i] = Range{Low: lo, High: lo + rng.Int63n(int64(n)/100)}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.CountBatch("t", "c0", pool); err != nil {
			t.Fatal(err)
		}
	}
	return s, pool
}

func countWhere(t testing.TB, s *Store, r Range) int {
	n, err := s.CountWhere("t", Cond{Col: "c0", Op: ">=", Val: r.Low}, Cond{Col: "c0", Op: "<=", Val: r.High})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCountWhereBudgetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxAllocs = 2 // measured 0: the term is built on the caller's stack, and a one-column term is planned without an advice map
	big, pool := convergedStore(t, 200_000, 4, 6000)
	if st, _ := big.Stats("t", "c0"); st.Pieces < 10_000 {
		t.Fatalf("store has %d pieces, want >= 10000", st.Pieces)
	}
	cracks := func() int { st, _ := big.Stats("t", "c0"); return st.Cracks }
	before := cracks()
	narrow := pool[0]
	wide := Range{Low: pool[1].Low, High: pool[2].High}
	if wide.Low > wide.High {
		wide = Range{Low: pool[2].Low, High: pool[1].High}
	}
	small, smallPool := convergedStore(t, 2000, 1, 4)
	cases := []struct {
		name string
		s    *Store
		r    Range
	}{
		{"narrow answer, 4 columns, >10k pieces", big, narrow},
		{"wide answer, 4 columns, >10k pieces", big, wide},
		{"1 column, a handful of pieces", small, smallPool[0]},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() { countWhere(t, c.s, c.r) })
		if got > maxAllocs {
			t.Errorf("%s: CountWhere allocates %.0f times per call, budget %d", c.name, got, maxAllocs)
		}
	}
	// No WHERE at all: the live row count, not a scan of the base.
	if got := testing.AllocsPerRun(20, func() {
		if n, err := big.CountWhere("t"); err != nil || n != 200_000 {
			t.Fatalf("COUNT(*) = %d, %v", n, err)
		}
	}); got > maxAllocs {
		t.Errorf("CountWhere with no condition allocates %.0f times per call, budget %d", got, maxAllocs)
	}
	if after := cracks(); after != before {
		t.Fatalf("column cracked %d times during the measurement: it was not converged", after-before)
	}
}

func TestCountWhereBudgetTime(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	s, pool := convergedStore(t, 200_000, 4, 6000)
	// Best of five passes over the pool for each side: the gate is on the
	// code's cost, not on what else the machine was doing.
	best := func(f func(r Range)) time.Duration {
		min := time.Duration(1<<63 - 1)
		for pass := 0; pass < 5; pass++ {
			t0 := time.Now()
			for _, r := range pool {
				f(r)
			}
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}
	scalar := best(func(r Range) {
		if _, err := s.Count("t", "c0", r.Low, r.High); err != nil {
			t.Fatal(err)
		}
	})
	planned := best(func(r Range) { countWhere(t, s, r) })
	ratio := float64(planned) / float64(scalar)
	t.Logf("Count %v, CountWhere %v per %d statements: ratio %.2f", scalar, planned, len(pool), ratio)
	if ratio > 10 {
		t.Fatalf("CountWhere costs %.1f x Count on a converged column, budget 10 x", ratio)
	}
}

// The batch's budget: on a converged column CountBatch answers its ranges
// as Store.Count would, a run of them under one read hold, so it
// allocates a constant number of times whatever its size, cracks
// nothing, and costs per range no more than a scalar Store.Count — the
// store entry, column resolution, lock and accounting it pays once a run
// instead of per range.
func TestCountBatchBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts and timing under the race detector are not the program's")
	}
	const maxAllocs = 1 // measured 1: the counts slice CountBatch returns
	s, pool := convergedStore(t, 200_000, 4, 6000)
	stats := func() ColumnStats { st, _ := s.Stats("t", "c0"); return st }
	if st := stats(); st.Pieces < 10_000 {
		t.Fatalf("store has %d pieces, want >= 10000", st.Pieces)
	}
	before := stats().Cracks
	for _, size := range []int{8, 64, 512} {
		countBatch := func(ranges []Range) {
			if _, err := s.CountBatch("t", "c0", ranges); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(100, func() { countBatch(pool[:size]) }); got > maxAllocs {
			t.Errorf("CountBatch of %d ranges allocates %.0f times per call, budget %d", size, got, maxAllocs)
		}
		ratio, scalar, batched := medianRatio(
			func() {
				for _, r := range pool {
					if _, err := s.Count("t", "c0", r.Low, r.High); err != nil {
						t.Fatal(err)
					}
				}
			},
			func() {
				for i := 0; i < len(pool); i += size {
					countBatch(pool[i:min(i+size, len(pool))])
				}
			})
		perRange := func(d time.Duration) time.Duration { return d / time.Duration(len(pool)) }
		t.Logf("batches of %d: %v a range, Count %v: ratio %.2f", size, perRange(batched), perRange(scalar), ratio)
		if ratio > 1 {
			t.Errorf("CountBatch of %d ranges costs %.2f x Store.Count a range (%v, %v)", size, ratio, perRange(batched), perRange(scalar))
		}
	}
	if after := stats().Cracks; after != before {
		t.Fatalf("column cracked %d times during the measurement: it was not converged", after-before)
	}
}

// medianRatio runs a and b over 41 interleaved pairs, alternating which
// goes first, and returns the median over the pairs of b's time relative
// to a's, with each side's median time. A burst of other load, or a
// machine drifting between the two sides, lands inside one pair, which
// the median discards; a best-of-N of each side measured apart cannot
// tell such a drift from a cost.
func medianRatio(a, b func()) (ratio float64, aTime, bTime time.Duration) {
	const pairs = 41
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	ratios, as, bs := make([]float64, pairs), make([]time.Duration, pairs), make([]time.Duration, pairs)
	for p := range ratios {
		if p%2 == 0 {
			as[p] = timed(a)
			bs[p] = timed(b)
		} else {
			bs[p] = timed(b)
			as[p] = timed(a)
		}
		ratios[p] = float64(bs[p]) / float64(as[p])
	}
	slices.Sort(ratios)
	slices.Sort(as)
	slices.Sort(bs)
	return ratios[pairs/2], as[pairs/2], bs[pairs/2]
}

// The update fold's budget (ROADMAP item 2): an insert leaves the store
// as adapted as it found it, at a cost set by the batch and the pieces
// it crosses — never by the size of the column or of its index.

func crackerColumn(t testing.TB, s *Store, table, attr string) *core.Column {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.tables[table].Column(attr)
	if !ok {
		t.Fatalf("%s.%s has no cracker column", table, attr)
	}
	return c
}

func TestInsertKeepsIndexBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const n = 200_000
	s, pool := convergedStore(t, n, 4, 6000)
	col := crackerColumn(t, s, "t", "c0")
	pieces := col.Pieces()
	if pieces < 10_000 {
		t.Fatalf("store has %d pieces, want >= 10000", pieces)
	}
	cuts := col.Index().Cuts()
	next := cuts[len(cuts)-1].Val // pool ranges reach past the tapestry's 1..n; inserts go above the last cut
	batch := func(at func(i int) int64) [][]int64 {
		rows := make([][]int64, 16)
		for i := range rows {
			v := at(i)
			rows[i] = []int64{v, v, v, v}
		}
		return rows
	}
	above := func() [][]int64 {
		return batch(func(int) int64 { next++; return next })
	}
	insertAndCount := func(rows [][]int64) {
		if err := s.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Count("t", "c0", pool[0].Low, pool[0].High); err != nil {
			t.Fatal(err)
		}
	}

	// Above the domain: the walk stops at the last cut.
	before := col.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { insertAndCount(above()) })
	// A copy of the cut list is one allocation of 24 bytes a cut (>= 240 kB
	// a fold here): the count above cannot see it, the bytes can. Median,
	// because the vectors' amortized growth lands in some round.
	bytes := make([]uint64, runs)
	for i := range bytes {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		insertAndCount(above())
		runtime.ReadMemStats(&m1)
		bytes[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	slices.Sort(bytes)
	const maxAllocs, maxBytes = 40, 8 << 10
	if allocs > maxAllocs || bytes[runs/2] > maxBytes {
		t.Errorf("insert + count allocates %.0f times, %d bytes a round; budget %d, %d whatever the index size", allocs, bytes[runs/2], maxAllocs, maxBytes)
	}
	after := col.Stats()
	folds := int64(after.RippleFolds - before.RippleFolds)
	if folds != 2*runs+1 || after.RebuildFolds != 0 { // AllocsPerRun warms up once
		t.Fatalf("%d ripple and %d rebuild folds in %d rounds", folds, after.RebuildFolds, 2*runs+1)
	}
	if moved := after.TuplesMoved - before.TuplesMoved; moved > 16*folds {
		t.Errorf("appends above the domain moved %d tuples in %d folds, budget 16 a fold", moved, folds)
	}
	if after.CutsShifted != 0 || after.Cracks != before.Cracks || col.Pieces() != pieces {
		t.Errorf("appends above the domain shifted %d cuts, cracked %d times, pieces %d -> %d",
			after.CutsShifted, after.Cracks-before.Cracks, pieces, col.Pieces())
	}

	// Mid-domain: every piece above the smallest key is crossed and
	// gives up at most one tuple per batch row; the index keeps its cuts.
	lo := int64(n / 2)
	crossed := 0
	for _, c := range cuts {
		if c.Val > lo {
			crossed++
		}
	}
	before = col.Stats()
	insertAndCount(batch(func(i int) int64 { return lo + int64(i)*37 }))
	after = col.Stats()
	if after.RippleFolds != before.RippleFolds+1 || after.Cracks != before.Cracks || col.Pieces() != pieces {
		t.Fatalf("mid-domain batch did not ripple: before %+v, after %+v, pieces %d -> %d", before, after, pieces, col.Pieces())
	}
	if moved := after.TuplesMoved - before.TuplesMoved; moved > int64(16*(crossed+1)) || after.CutsShifted == 0 {
		t.Errorf("mid-domain batch moved %d tuples across %d pieces (budget %d), shifted %d cuts",
			moved, crossed, 16*(crossed+1), after.CutsShifted)
	}
	if err := col.Verify(); err != nil {
		t.Fatal(err)
	}

	// A batch that would write more than the column holds: the walk's own
	// count says a reset is cheaper, and the index goes.
	big := make([][]int64, n+n/2)
	for i := range big {
		v := int64(1 + i%n)
		big[i] = []int64{v, v, v, v}
	}
	insertAndCount(big)
	if after = col.Stats(); after.RebuildFolds != 1 || col.Pieces() >= pieces {
		t.Fatalf("a batch larger than the column did not reset the index: %+v, pieces %d", after, col.Pieces())
	}
}

func TestRestoreBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	s, _ := convergedStore(t, 250_000, 1, 20_000)
	st, _ := crackerColumn(t, s, "t", "c0").TakeState(true)
	if len(st.Cuts) < 36_000 {
		t.Fatalf("state has %d cuts, want >= 36000", len(st.Cuts))
	}
	t0 := time.Now()
	c, err := s.tables["t"].ColumnFromState("c0", st)
	d := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ColumnFromState of %d rows x %d cuts: %v", len(st.OIDs), len(st.Cuts), d)
	if d > time.Second {
		t.Fatalf("restoring %d rows x %d cuts took %v, budget 1 s (a per-cut scan of the column is ~7 s)", len(st.OIDs), len(st.Cuts), d)
	}
	if c.Pieces() != len(st.Cuts)+1 {
		t.Fatalf("restored column has %d pieces, state %d cuts", c.Pieces(), len(st.Cuts))
	}
}

// bootImage saves the image the boot budgets reopen: a 1M × 3 tapestry
// after 2 000 1 % counts on c0, ≈ 28 MB.
func bootImage(t *testing.T) (path string, size int64) {
	const n = 1_000_000
	s := New()
	if err := s.LoadTapestry("t", n, 3, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		lo := 1 + rng.Int63n(n)
		if _, err := s.Count("t", "c0", lo, lo+rng.Int63n(n/100)); err != nil {
			t.Fatal(err)
		}
	}
	path = filepath.Join(t.TempDir(), "img")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// Boot is decode, counted: Open reads the image in one piece and decodes
// every vector straight into the store, so it allocates about the
// image's bytes once over — 1.77 × in 91 objects on a 28 MB image, the
// file read beside the decoded vectors; an Open that decodes the image
// twice allocates 3.09 × in ≈ 122. The count does not depend on the
// machine's load, as TestBootDecodeBudget's CPU time does.
func TestBootDecodeAllocBudget(t *testing.T) {
	path, size := bootImage(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	ratio := float64(bytes) / float64(size)
	t.Logf("Open of a %d-byte image allocated %d B (%.2f x) in %d objects", size, bytes, ratio, objects)
	if ratio > 2 || objects > 100 {
		t.Fatalf("Open allocated %.2f x its image in %d objects, budget 2 x and 100", ratio, objects)
	}
}

// The sideways budget (ROADMAP item 2): a map is payload vectors on its
// key column, so it costs what the column costs — nothing to a count,
// one gather to build, the batch to an insert — and a projection is a
// few allocations whatever it returns.

// projectRows is one statement of a projection workload.
func projectRows(t testing.TB, s *Store, r Range, cols ...string) [][]int64 {
	t.Helper()
	res, err := s.Select("t", "c0", r.Low, r.High)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestProjectionBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const n = 200_000
	s, pool := convergedStore(t, n, 3, 6000)
	col := crackerColumn(t, s, "t", "c0")
	pieces := col.Pieces()
	fetched := func() int64 { f, _ := s.FetchedTuples("t"); return f }

	// The first projection on a converged column: one gather per payload
	// through the column's standing permutation — 8 bytes a row a payload
	// and nothing else of the column's size (no second copy of the keys
	// and OIDs), no crack, no write, no cut, and from then on no base
	// fetch.
	before := col.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if got := projectRows(t, s, pool[0], "c1", "c2"); len(got) == 0 {
		t.Fatal("pool range is empty")
	}
	runtime.ReadMemStats(&m1)
	if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(2*8*n*5/4); got > budget {
		t.Errorf("first projection of 2 attributes over %d rows allocated %d bytes, budget %d (the payload vectors and a quarter)", n, got, budget)
	}
	after := col.Stats()
	if after.TuplesMoved != before.TuplesMoved || after.Cracks != before.Cracks || col.Pieces() != pieces {
		t.Fatalf("first projection on a converged column moved %d tuples in %d cracks, pieces %d -> %d",
			after.TuplesMoved-before.TuplesMoved, after.Cracks-before.Cracks, pieces, col.Pieces())
	}
	if st := s.SidewaysStats(); st.Builds != 2 || st.Projections != 1 || fetched() != 0 {
		t.Fatalf("first projection: %+v, %d tuples fetched through the base", st, fetched())
	}

	// A converged projection allocates a constant number of times: the
	// selection's two vectors and result, the windows' header and backing,
	// the rows' header and backing — not once per row.
	// The collector stays off while they are counted: a collection cycle
	// allocates on the runtime's behalf, and the wide answer's megabytes
	// start cycles the narrow one does not.
	allocs := func(runs int, r Range) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(runs, func() { projectRows(t, s, r, "c1", "c2") })
	}
	narrow, wide := pool[0], Range{Low: 1, High: n / 2}
	const maxAllocs = 10 // measured 8
	allocsNarrow := allocs(50, narrow)
	projectRows(t, s, wide, "c1", "c2") // install the wide range's cuts
	allocsWide := allocs(10, wide)
	if allocsNarrow > maxAllocs || allocsWide != allocsNarrow {
		t.Errorf("a projection allocates %.0f times for %d rows and %.0f for %d, budget %d whatever the row count",
			allocsNarrow, narrow.High-narrow.Low+1, allocsWide, n/2, maxAllocs)
	}

	// A 16-row append above the last cut, then a projection that folds it:
	// 16 tuples written — 16 × (attrs + 1) values — no cut shifted, no
	// piece lost, the payload vectors kept and served from.
	cuts := col.Index().Cuts()
	next := cuts[len(cuts)-1].Val
	top := Range{Low: int64(n) - 500, High: math.MaxInt64} // unbounded above: no cut parks past the appends
	const rounds = 20
	projectRows(t, s, top, "c1", "c2")
	pieces = col.Pieces()
	before, sw0 := col.Stats(), s.SidewaysStats()
	for round := 1; round <= rounds; round++ {
		rows := make([][]int64, 16)
		for i := range rows {
			next++
			rows[i] = []int64{next, -next, 2 * next}
		}
		if err := s.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		got := projectRows(t, s, top, "c0", "c1", "c2")
		if len(got) != 501+16*round {
			t.Fatalf("round %d: projection above the domain has %d rows, want %d", round, len(got), 501+16*round)
		}
		for _, r := range got {
			if r[0] > int64(n) && (r[1] != -r[0] || r[2] != 2*r[0]) {
				t.Fatalf("round %d: appended row reads back as %v", round, r)
			}
		}
	}
	after, sw1 := col.Stats(), s.SidewaysStats()
	if moved := after.TuplesMoved - before.TuplesMoved; moved > 16*rounds {
		t.Errorf("appends above the domain beside 2 payloads wrote %d tuples in %d folds, budget 16 a fold", moved, rounds)
	}
	if after.CutsShifted != before.CutsShifted || after.Cracks != before.Cracks || col.Pieces() != pieces ||
		after.RippleFolds-before.RippleFolds != rounds || after.RebuildFolds != before.RebuildFolds {
		t.Errorf("appends above the domain: before %+v, after %+v, pieces %d -> %d", before, after, pieces, col.Pieces())
	}
	if sw1.Builds != sw0.Builds || sw1.Declines != sw0.Declines || sw1.Projections-sw0.Projections != rounds || fetched() != 0 {
		t.Errorf("the payload vectors did not ride the appends: before %+v, after %+v, %d tuples fetched", sw0, sw1, fetched())
	}
}

func TestCountBesidePayloadsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	// Twin stores, cracked alike; only one carries payload vectors.
	bare, _ := convergedStore(t, 200_000, 3, 6000)
	s, pool := convergedStore(t, 200_000, 3, 6000)
	projectRows(t, s, pool[0], "c1", "c2")
	if st, none := s.SidewaysStats(), bare.SidewaysStats(); st.Pays != 2 || none.Pays != 0 {
		t.Fatalf("projection left %d live payload vectors, want 2 (its twin %d, want 0)", st.Pays, none.Pays)
	}
	count := func(s *Store) func() {
		return func() {
			for _, r := range pool {
				if _, err := s.Count("t", "c0", r.Low, r.High); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ratio, without, beside := medianRatio(count(bare), count(s))
	t.Logf("Count %v without payloads, %v beside 2, per %d statements: ratio %.2f", without, beside, len(pool), ratio)
	if ratio > 1.3 {
		t.Fatalf("Store.Count beside live payloads costs %.2f x the same count without, budget 1.3 x", ratio)
	}
}

// The observability and autotune gates. On the converged read path the
// production instrumentation may cost at most 5 % (instrumentedOverhead
// says how that is measured). On a sequential walk over N = 1M with the
// store default standard the tuner must converge to ddr and its
// steady-state (second-half) per-query latency must land within 2 x of
// an always-ddr store; on a random stream it must stay on standard
// with zero flips.

func TestMetricsOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	pct, offNS, onNS := instrumentedOverhead()
	t.Logf("converged lookup: %.1f ns off, %.1f ns on; the median pair is %.2f %% slower instrumented", offNS, onNS, pct)
	if pct > 5.0 {
		t.Fatalf("instrumented converged lookup is %.2f%% slower (off %.1fns, on %.1fns); budget is 5%%", pct, offNS, onNS)
	}
}

func TestAutotuneSequentialBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	rows := autotuneBenchRows()
	ddrNs, _ := autotuneBenchRun(t, rows, workload.Sequential, true)
	autoNs, dec := autotuneBenchRun(t, rows, workload.Sequential, false)
	if len(dec) != 1 || dec[0].Strategy != "ddr" || dec[0].Flips == 0 {
		t.Fatalf("autotune did not converge to ddr on the sequential walk: %+v", dec)
	}
	ratio := autoNs / ddrNs
	t.Logf("steady state: autotune %.0f ns/q, always-ddr %.0f ns/q (%.2f x)", autoNs, ddrNs, ratio)
	if ratio > 2.0 {
		t.Fatalf("autotune steady-state %.0f ns/q is %.2fx always-ddr (%.0f ns/q), want <= 2x",
			autoNs, ratio, ddrNs)
	}
}

func TestAutotuneRandomBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	_, dec := autotuneBenchRun(t, autotuneBenchRows(), workload.Random, false)
	if len(dec) != 1 || dec[0].Strategy != "standard" || dec[0].Flips != 0 {
		t.Fatalf("autotune flipped on a random stream: %+v", dec)
	}
}
