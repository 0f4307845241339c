package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/relation"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// TestGatherPasses pins gather's contract: answers in shard order from
// whichever pass produced them, pass 2 only for the shards pass 1 left,
// every shard run even when one fails, and the lowest-indexed error
// whichever pass it came from.
func TestGatherPasses(t *testing.T) {
	errAt := func(sh int) error { return fmt.Errorf("shard %d failed", sh) }
	cases := []struct {
		name      string
		readErr   []int // shards whose read fails
		declines  []int // shards whose read declines
		fnErr     []int // shards whose pass-2 fn fails
		noRead    bool
		wantErr   error
		wantPass2 []int
	}{
		{name: "all answer inline"},
		{name: "one declines", declines: []int{5}, wantPass2: []int{5}},
		{name: "some decline", declines: []int{3, 4, 6}, wantPass2: []int{3, 4, 6}},
		{name: "write-only fan-out", noRead: true, wantPass2: []int{2, 3, 4, 5, 6}},
		{name: "read error", readErr: []int{4}, wantErr: errAt(4)},
		{name: "lower pass-2 error wins", readErr: []int{5}, declines: []int{3}, fnErr: []int{3}, wantErr: errAt(3), wantPass2: []int{3}},
		{name: "lower read error wins", readErr: []int{3}, declines: []int{5}, fnErr: []int{5}, wantErr: errAt(3), wantPass2: []int{5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var pass2 []int
			read := func(sh int) (int, bool, error) {
				switch {
				case slices.Contains(c.readErr, sh):
					return 0, false, errAt(sh)
				case slices.Contains(c.declines, sh):
					return 0, false, nil
				}
				return 10 * sh, true, nil
			}
			if c.noRead {
				read = nil
			}
			fn := func(sh int) (int, error) {
				mu.Lock()
				pass2 = append(pass2, sh)
				mu.Unlock()
				if slices.Contains(c.fnErr, sh) {
					return 0, errAt(sh)
				}
				return 10 * sh, nil
			}
			out, err := gather(2, 6, read, fn)
			slices.Sort(pass2)
			if !slices.Equal(pass2, c.wantPass2) {
				t.Fatalf("pass 2 ran shards %v, want %v", pass2, c.wantPass2)
			}
			if c.wantErr != nil {
				if err == nil || err.Error() != c.wantErr.Error() {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				return
			}
			if err != nil || !slices.Equal(out, []int{20, 30, 40, 50, 60}) {
				t.Fatalf("gather = %v, %v; want the answers in shard order", out, err)
			}
		})
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// withProcs runs the rest of the test under GOMAXPROCS(n).
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// await spins until cond holds or a second has passed; the caller's
// checks report a timeout.
func await(cond func() bool) {
	for deadline := time.Now().Add(time.Second); !cond() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// TestGatherClaimLoop pins pass 2's claim loop: the caller and its
// helpers take the declined shards off one counter, each exactly once;
// the caller returns only after every shard has finished, whoever ran
// it; the lowest-indexed error wins whichever goroutine hit it; and no
// more goroutines run shards than GOMAXPROCS allows, so one processor or
// one declined shard starts none.
func TestGatherClaimLoop(t *testing.T) {
	t.Run("each declined shard once", func(t *testing.T) {
		withProcs(t, 4)
		const first, n = 3, 16
		runs := make([]atomic.Int32, first+n)
		for trial := 0; trial < 20000; trial++ {
			answers := trial % 3 // pass 1 answers every third shard from here
			read := func(sh int) (int, bool, error) {
				if sh%3 == answers {
					return 10 * sh, true, nil
				}
				return 0, false, nil
			}
			fn := func(sh int) (int, error) {
				runs[sh].Add(1)
				return 10 * sh, nil
			}
			out, err := gather(first, first+n-1, read, fn)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				sh := first + i
				want := int32(1)
				if sh%3 == answers {
					want = 0
				}
				if got := runs[sh].Swap(0); got != want {
					t.Fatalf("trial %d: shard %d ran %d times in pass 2, want %d", trial, sh, got, want)
				}
				if v != 10*sh {
					t.Fatalf("trial %d: out[%d] = %d, want shard %d's answer %d", trial, i, v, sh, 10*sh)
				}
			}
		}
	})

	t.Run("caller waits for helpers", func(t *testing.T) {
		withProcs(t, 4)
		for trial := 0; trial < 20; trial++ {
			caller := goid()
			var helperHolds, finished atomic.Int32
			fn := func(sh int) (int, error) {
				if goid() == caller {
					await(func() bool { return helperHolds.Load() > 0 })
				} else {
					helperHolds.Add(1)
					time.Sleep(2 * time.Millisecond)
				}
				finished.Add(1)
				return 10 * sh, nil
			}
			out, err := gather(0, 7, nil, fn)
			if got := finished.Load(); got != 8 || err != nil {
				t.Fatalf("trial %d: gather returned (%v) with %d of 8 shards finished", trial, err, got)
			}
			if !slices.Equal(out, []int{0, 10, 20, 30, 40, 50, 60, 70}) {
				t.Fatalf("trial %d: gather = %v, want every shard's answer in shard order", trial, out)
			}
			if helperHolds.Load() == 0 {
				t.Fatalf("trial %d: no helper ran a shard under GOMAXPROCS(4)", trial)
			}
		}
	})

	t.Run("lowest error from a helper", func(t *testing.T) {
		withProcs(t, 4)
		errAt := func(sh int) error { return fmt.Errorf("shard %d failed", sh) }
		for trial := 0; trial < 20; trial++ {
			caller := goid()
			var mu sync.Mutex
			lowest := -1 // the lowest shard a helper ran
			var helperDone atomic.Bool
			read := func(sh int) (int, bool, error) {
				if sh == 9 {
					return 0, false, errAt(sh) // the caller's, and first in time
				}
				return 0, false, nil
			}
			fn := func(sh int) (int, error) {
				if goid() == caller {
					await(helperDone.Load)
					return 10 * sh, nil
				}
				mu.Lock()
				if lowest < 0 || sh < lowest {
					lowest = sh
				}
				mu.Unlock()
				helperDone.Store(true)
				return 0, errAt(sh)
			}
			_, err := gather(2, 9, read, fn)
			if lowest < 0 {
				t.Fatalf("trial %d: no helper ran a shard under GOMAXPROCS(4)", trial)
			}
			if want := errAt(lowest); err == nil || err.Error() != want.Error() {
				t.Fatalf("trial %d: err = %v, want %v", trial, err, want)
			}
		}
	})

	t.Run("goroutines", func(t *testing.T) {
		for _, c := range []struct{ procs, declined, maxRunners int }{
			{procs: 1, declined: 8, maxRunners: 1},
			{procs: 4, declined: 1, maxRunners: 1},
			{procs: 2, declined: 8, maxRunners: 2},
		} {
			withProcs(t, c.procs)
			caller := goid()
			var mu sync.Mutex
			runners := map[uint64]bool{}
			fn := func(sh int) (int, error) {
				mu.Lock()
				runners[goid()] = true
				mu.Unlock()
				time.Sleep(time.Millisecond) // give a helper time to claim
				return sh, nil
			}
			if _, err := gather(0, c.declined-1, nil, fn); err != nil {
				t.Fatal(err)
			}
			if len(runners) > c.maxRunners || (c.maxRunners == 1 && !runners[caller]) {
				t.Errorf("GOMAXPROCS(%d), %d declined shards: ran on %d goroutines (caller among them: %v), want at most %d",
					c.procs, c.declined, len(runners), runners[caller], c.maxRunners)
			}
		}
	})
}

// TestCountBatchMixedPasses: a batch whose sub-batch one shard answers
// in gather's pass 1 (its c0 converged) while the other shard has no
// cracker column yet, so declines and cracks in pass 2, answers, cracks
// and counts exactly as the same ranges counted one by one on a twin
// router: the same counts, the same per-shard Stats, and byte-equal
// shard images, which hold every cut.
func TestCountBatchMixedPasses(t *testing.T) {
	const n = 20_000
	var batched, single *Store
	for _, st := range []**Store{&batched, &single} {
		*st = New(Options{Shards: 2, Kind: Range})
		if err := (*st).LoadTapestry("t", n, 3, 1); err != nil {
			t.Fatal(err)
		}
	}
	bound := batched.tables["t"].part.(rangePart).bounds[0]
	rng := rand.New(rand.NewSource(9))
	span := func(lo, hi int64) crackdb.Range { // a range inside [lo, hi)
		a := lo + rng.Int63n(hi-lo-100)
		return crackdb.Range{Low: a, High: a + rng.Int63n(100)}
	}
	warm := make([]crackdb.Range, 24)
	for i := range warm {
		warm[i] = span(1, bound)
	}
	var ranges []crackdb.Range
	for i, w := range warm {
		ranges = append(ranges, w)
		if i%3 == 0 {
			ranges = append(ranges, span(bound, n+1))
		}
	}
	countOne := func(st *Store, r crackdb.Range) int {
		got, err := st.CountWhere("t", crackdb.Cond{Col: "c0", Op: ">=", Val: r.Low}, crackdb.Cond{Col: "c0", Op: "<=", Val: r.High})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, r := range warm {
		countOne(batched, r)
		countOne(single, r)
	}
	if cracked, err := batched.shards[1].CrackedColumnStats("t"); err != nil || len(cracked) != 0 {
		t.Fatalf("shard 1 has cracker columns %v (%v) before the batch", cracked, err)
	}
	stats := func(st *Store) []crackdb.ColumnStats {
		per, err := st.ShardStats("t", "c0")
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	warmed := stats(batched)[0]

	got, err := batched.CountBatch("t", "c0", ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if want := countOne(single, r); got[i] != want {
			t.Errorf("range %d %+v: the batch counts %d, one by one %d", i, r, got[i], want)
		}
	}
	b, o := stats(batched), stats(single)
	if !slices.Equal(b, o) {
		t.Fatalf("per-shard stats after the batch %+v, one by one %+v", b, o)
	}
	if b[0].Cracks != warmed.Cracks || b[1].Cracks == 0 {
		t.Fatalf("shard 0 cracked %d times in the batch, shard 1 %d: want 0 and some", b[0].Cracks-warmed.Cracks, b[1].Cracks)
	}
	dir := t.TempDir()
	for i := range batched.shards {
		var images [2][]byte
		for k, st := range []*Store{batched, single} {
			path := filepath.Join(dir, fmt.Sprintf("%d-%d", i, k))
			if err := st.shards[i].Save(path); err != nil {
				t.Fatal(err)
			}
			if images[k], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Fatalf("shard %d: the batch left an image (%d bytes) unlike one by one (%d bytes)", i, len(images[0]), len(images[1]))
		}
	}
}

// TestMixedInlineAndFannedOut runs reads through both of gather's passes
// at once, under -race in CI: a 4-shard hash router with a converged c0
// takes counts and 3-column fetches while one writer inserts keys above
// the domain that all hash to one shard — so that shard declines the
// read-only offer and is fanned out while the other three answer inline —
// and another deletes key ranges, which leaves every shard a pending
// fold. Every answer must lie between what the writers had finished
// when the read started and what they had started when it returned (the
// bench's bracket beside /save), fetched rows must be the rows those keys
// were loaded or inserted with, in canonical order.
func TestMixedInlineAndFannedOut(t *testing.T) {
	const (
		n         = 20_000
		shards    = 4
		hot       = 2 // the shard every inserted key hashes to
		batch     = 4
		inserts   = 60
		deletes   = 30
		delWidth  = 40
		minReads  = 200 // and at least until the writers are done
		fetchEach = 4   // every fourth read is a fetch
	)
	st := New(Options{Shards: shards, Kind: Hash})
	if err := st.LoadTapestry("t", n, 3, 1); err != nil {
		t.Fatal(err)
	}
	base := relation.Tapestry(n, 3, 1)
	rowOf := make(map[int64][]int64, n)
	for i := 0; i < n; i++ {
		r := base.Row(i)
		rowOf[r[0]] = r
	}
	rng := rand.New(rand.NewSource(3))
	pool := make([]crackdb.Range, 400)
	for i := range pool {
		lo := 1 + rng.Int63n(n)
		pool[i] = crackdb.Range{Low: lo, High: lo + rng.Int63n(n/50)}
	}
	for i := 0; i < 2; i++ {
		if _, err := st.CountBatch("t", "c0", pool); err != nil {
			t.Fatal(err)
		}
	}

	// The writers' schedules, fixed up front so a reader can bracket them.
	var insKeys []int64
	for k := int64(n + 1); len(insKeys) < inserts*batch; k++ {
		if (hashPart{n: shards}).route(k) == hot {
			insKeys = append(insKeys, k)
		}
	}
	for _, k := range insKeys {
		rowOf[k] = []int64{k, -k, 2 * k}
	}
	delRanges := make([]crackdb.Range, deletes)
	for i := range delRanges {
		lo := int64(1 + i*(n/deletes))
		delRanges[i] = crackdb.Range{Low: lo, High: lo + delWidth - 1}
	}
	var insStarted, insDone, delStarted, delDone, reads atomic.Int64
	var stop atomic.Bool
	defer stop.Store(true)
	// pace holds a writer's j-th operation until the reader has made
	// j × every reads, so the writes spread over the reads: the read
	// after an insert finds only the hot shard with pending updates, the
	// read after a delete finds all four. It reports false once the test
	// has ended.
	pace := func(j, every int) bool {
		for reads.Load() < int64(j*every) {
			if stop.Load() {
				return false
			}
			runtime.Gosched()
		}
		return true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < inserts; j++ {
			if !pace(j, 3) {
				return
			}
			rows := make([][]int64, batch)
			for i := range rows {
				rows[i] = rowOf[insKeys[j*batch+i]]
			}
			insStarted.Add(1)
			if err := st.InsertRows("t", rows); err != nil {
				errs <- err
				return
			}
			insDone.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for j, r := range delRanges {
			if !pace(j, 5) {
				return
			}
			delStarted.Add(1)
			got, err := st.Delete("t", crackdb.Cond{Col: "c0", Op: ">=", Val: r.Low}, crackdb.Cond{Col: "c0", Op: "<=", Val: r.High})
			if err != nil || got != delWidth {
				errs <- fmt.Errorf("delete %d of [%d, %d]: %d rows, %v; want %d", j, r.Low, r.High, got, err, delWidth)
				return
			}
			delDone.Add(1)
		}
	}()

	// live counts the keys in [lo, hi] that are certainly (or possibly)
	// present given how many inserts and deletes have landed.
	live := func(lo, hi int64, ins, del int64) int {
		c := max(0, int(min(hi, n)-max(lo, 1)+1))
		for _, r := range delRanges[:del] {
			c -= max(0, int(min(hi, r.High)-max(lo, r.Low)+1))
		}
		for _, k := range insKeys[:ins*batch] {
			if k >= lo && k <= hi {
				c++
			}
		}
		return c
	}
	deleted := func(k int64, del int64) bool {
		for _, r := range delRanges[:del] {
			if k >= r.Low && k <= r.High {
				return true
			}
		}
		return false
	}
	read := func(i int, lo, hi int64) error {
		insFloor, delFloor := insDone.Load(), delDone.Load()
		conds := []crackdb.Cond{{Col: "c0", Op: ">=", Val: lo}, {Col: "c0", Op: "<=", Val: hi}}
		var got int
		var rows [][]int64
		if i%fetchEach == 0 {
			res, err := st.SelectWhere("t", conds...)
			if err != nil {
				return err
			}
			if rows, err = res.Rows("c0", "c1", "c2"); err != nil {
				return err
			}
			got = len(rows)
		} else {
			var err error
			if got, err = st.CountWhere("t", conds...); err != nil {
				return err
			}
		}
		insCeil, delCeil := insStarted.Load(), delStarted.Load()
		if low, high := live(lo, hi, insFloor, delCeil), live(lo, hi, insCeil, delFloor); got < low || got > high {
			return fmt.Errorf("read %d of [%d, %d]: %d rows, want between %d and %d", i, lo, hi, got, low, high)
		}
		for j, r := range rows {
			k := r[0]
			if k < lo || k > hi || !slices.Equal(r, rowOf[k]) || deleted(k, delFloor) ||
				(k > n && slices.Index(insKeys, k) >= int(insCeil)*batch) {
				return fmt.Errorf("read %d of [%d, %d]: row %d is %v", i, lo, hi, j, r)
			}
			if j > 0 && rows[j-1][0] >= k {
				return fmt.Errorf("read %d of [%d, %d]: rows %d and %d out of canonical order: %v, %v", i, lo, hi, j-1, j, rows[j-1], r)
			}
		}
		return nil
	}

	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for i := 0; ; i++ {
		select {
		case <-writersDone:
			if i >= minReads {
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				for j := 0; j < len(pool); j += 40 { // settled: exact
					if err := read(j, pool[j].Low, pool[j].High); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
		default:
		}
		var lo, hi int64
		if i%2 == 0 { // straddles the domain's end: old keys and inserted ones
			lo = n - rng.Int63n(100)
			hi = n + 1 + rng.Int63n(int64(4*len(insKeys)))
		} else {
			r := pool[rng.Intn(len(pool))]
			lo, hi = r.Low, r.High
		}
		if err := read(i, lo, hi); err != nil {
			t.Fatal(err)
		}
		reads.Add(1)
	}
}

// BenchmarkColdCount times gather's pass 2 where cold_crack pays for it:
// a fresh 4-shard hash router of 200 000 rows, then one seeded stream of
// 1 000 random 1 % CountWheres, each of which cracks on every shard it
// reaches. The router is built with the timer stopped; ns/stmt is the
// stream's time a statement.
func BenchmarkColdCount(b *testing.B) {
	const n, stmts = 200_000, 1000
	const width = n / 100
	rng := rand.New(rand.NewSource(1))
	lows := make([]int64, stmts)
	for i := range lows {
		lows[i] = 1 + rng.Int63n(n-width+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := New(Options{Shards: 4, Kind: Hash})
		if err := st.LoadTapestry("t", n, 2, 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, lo := range lows {
			got, err := st.CountWhere("t", crackdb.Cond{Col: "c0", Op: ">=", Val: lo}, crackdb.Cond{Col: "c0", Op: "<", Val: lo + width})
			if err != nil || got != width {
				b.Fatalf("count of [%d, %d): %d, %v; want %d", lo, lo+width, got, err, width)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stmts), "ns/stmt")
}

// BenchmarkColdEpochs runs cold_crack's two epochs in process, in
// cracksrv's posture: a fresh 4-shard hash router of a 1M × 2 tapestry
// with the tuner on, once per start strategy cracksrv's -strategy takes
// (ddr is its default). 2 000 seeded random 1 % counts on c0, then a
// 2 000-count sequential walk on c1, each a one-range CountBatch as a
// SQL count reaches the router. The router is built with the timer
// stopped. ns/stmt is the epochs' time a statement; touched/stmt and
// moved/stmt are Stats.TuplesTouched and TuplesMoved summed over both
// columns and every shard, a statement.
func BenchmarkColdEpochs(b *testing.B) {
	const n, stmts = 1_000_000, 2000
	var epochs [2][]crackdb.Range
	for e, pat := range []workload.Pattern{workload.Random, workload.Sequential} {
		gen, err := workload.New(pat, workload.Config{Domain: n, Count: stmts, Selectivity: 0.01, Seed: int64(e + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range gen.Queries() { // generator domain [0, n) → keys 1..n
			epochs[e] = append(epochs[e], crackdb.Range{Low: q.Lo + 1, High: q.Hi})
		}
	}
	for _, start := range []string{"standard", "ddr"} {
		b.Run("start="+start, func(b *testing.B) {
			var work core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := New(Options{Shards: 4, Kind: Hash})
				if err := st.LoadTapestry("t", n, 2, 1); err != nil {
					b.Fatal(err)
				}
				if err := st.SetCrackStrategy(start, 42); err != nil {
					b.Fatal(err)
				}
				st.EnableAutotune(tuner.Config{})
				b.StartTimer()
				for e, ranges := range epochs {
					col := "c" + strconv.Itoa(e)
					for j, r := range ranges {
						got, err := st.CountBatch("t", col, ranges[j:j+1])
						if want := int(r.High - r.Low + 1); err != nil || got[0] != want {
							b.Fatalf("%s count of [%d, %d]: %v, %v; want %d", col, r.Low, r.High, got, err, want)
						}
					}
				}
				b.StopTimer()
				for e := range epochs {
					per, err := st.ShardStats("t", "c"+strconv.Itoa(e))
					if err != nil {
						b.Fatal(err)
					}
					for _, cs := range per {
						work = work.Add(cs.Stats)
					}
				}
				b.StartTimer()
			}
			total := float64(b.N * 2 * stmts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/stmt")
			b.ReportMetric(float64(work.TuplesTouched)/total, "touched/stmt")
			b.ReportMetric(float64(work.TuplesMoved)/total, "moved/stmt")
		})
	}
}
