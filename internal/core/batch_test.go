package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// batchTwins builds two columns over the same values, cracked alike by
// the same warm-up ranges.
func batchTwins(n int, warm []expr.Range) (*Column, *Column) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	a, b := NewColumn("k", vals), NewColumn("k", vals)
	for _, r := range warm {
		a.Count(r.Low, r.High, r.LowIncl, r.HighIncl)
		b.Count(r.Low, r.High, r.LowIncl, r.HighIncl)
	}
	return a, b
}

// TestCountBatchMatchesOneByOne: a batch answers as its ranges counted
// one by one — every count, every work counter and the piece count —
// and its observer sees each range at the same point of the column's
// history, outside the column lock. The batch mixes converged ranges,
// ranges that crack, later ranges that only such a crack's cuts
// resolve, and ranges that need no lookup (empty, inverted, at a domain
// extreme); it runs on a clean column, one with pending inserts and one
// with deleted tuples. SelectBatch, handed the same half-open ranges to
// fold itself, answers and leaves its column as Count does too.
func TestCountBatchMatchesOneByOne(t *testing.T) {
	ge := func(lo, hi int64) expr.Range { return expr.Range{Col: "k", Low: lo, High: hi, LowIncl: true} }
	warm := []expr.Range{ge(100, 200), ge(200, 300), ge(300, 450), ge(600, 700)}
	batch := []expr.Range{
		ge(100, 200), ge(200, 300), ge(100, 300), // converged
		ge(150, 170),                             // cracks both cuts
		ge(150, 170), ge(100, 150), ge(170, 300), // resolved only after that crack
		ge(5, 5), ge(400, 10), // empty, inverted
		{Col: "k", Low: math.MinInt64, High: 200, LowIncl: true},                           // low cut trivial
		{Col: "k", Low: 600, High: math.MaxInt64, LowIncl: true, HighIncl: true},           // high cut trivial
		{Col: "k", Low: math.MinInt64, High: math.MaxInt64, LowIncl: true, HighIncl: true}, // both trivial
		ge(300, 450), ge(600, 700), ge(200, 450), ge(450, 600), // converged, past the first group
		{Col: "k", Low: 450, High: 600, HighIncl: true}, // cuts (451, false) and (600, true) are new: cracks
		ge(100, 450), ge(450, 700), ge(300, 450), ge(600, 700), ge(100, 200),
		{Col: "k", Low: math.MinInt64, High: 975, LowIncl: true, HighIncl: true}, // a crack ends the batch
	}
	for _, posture := range []string{"clean", "pending", "deleted"} {
		t.Run(posture, func(t *testing.T) {
			a, b := batchTwins(4000, warm)
			s, _ := batchTwins(4000, warm)
			for _, c := range []*Column{a, b, s} {
				switch posture {
				case "pending":
					c.Insert(150)
					c.Insert(2000)
				case "deleted":
					c.Delete(bat.OID(7))
					c.Delete(bat.OID(3000))
				}
			}
			var want []int
			var wantCracks []int
			for _, r := range batch {
				want = append(want, b.Count(r.Low, r.High, r.LowIncl, r.HighIncl))
				wantCracks = append(wantCracks, b.Stats().Cracks)
			}
			ranges := make([]Range, len(batch))
			for i, r := range batch {
				ranges[i] = inclusiveOf(r)
			}
			counts := make([]int, len(ranges))
			var seen []Range
			var seenCracks []int
			a.countBatch(ranges, counts, func(r Range) {
				if !a.mu.TryLock() {
					t.Fatal("the observer ran under the column lock")
				}
				a.mu.Unlock()
				seen, seenCracks = append(seen, r), append(seenCracks, a.Stats().Cracks)
			}, true)
			for i, n := range counts {
				if n != want[i] {
					t.Errorf("range %d %+v: batch counts %d, one by one %d", i, batch[i], n, want[i])
				}
			}
			if !slices.Equal(seen, ranges) || !slices.Equal(seenCracks, wantCracks) {
				t.Errorf("observer saw %v after cracks %v, want %v after %v", seen, seenCracks, ranges, wantCracks)
			}
			got, _ := s.SelectBatch(batch, true, true)
			for i, ans := range got {
				if ans.N != want[i] {
					t.Errorf("range %d %+v: SelectBatch counts %d, one by one %d", i, batch[i], ans.N, want[i])
				}
			}
			if ss, sb := s.Stats(), b.Stats(); ss != sb || s.Index().String() != b.Index().String() {
				t.Errorf("SelectBatch left stats %+v and cuts %s; one by one %+v and %s", ss, s.Index(), sb, b.Index())
			}
			sa, sb := a.Stats(), b.Stats()
			if sa.Queries != sb.Queries || sa.IndexLookups != sb.IndexLookups || sa.Cracks != sb.Cracks || a.Pieces() != b.Pieces() {
				t.Errorf("batch left queries %d, lookups %d, cracks %d, pieces %d; one by one %d, %d, %d, %d",
					sa.Queries, sa.IndexLookups, sa.Cracks, a.Pieces(), sb.Queries, sb.IndexLookups, sb.Cracks, b.Pieces())
			}
			if sa != sb {
				t.Errorf("batch stats %+v, one by one %+v", sa, sb)
			}
			if a.Index().String() != b.Index().String() {
				t.Errorf("cut sets differ:\n batch %s\n  one by one %s", a.Index(), b.Index())
			}
			if err := a.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCountBatchConcurrentUpdates: two goroutines count batches while a
// third inserts values above the queried domain and deletes them again,
// so read holds meet pending inserts, deletes and folds. Every range lies
// inside the base's domain, so each count is the base's, whatever the
// interleaving.
func TestCountBatchConcurrentUpdates(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(17))
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(n)
	}
	c := NewColumn("k", base)
	ora := newOracle(base)
	for lo := int64(0); lo < n; lo += 500 { // a grid the batches mostly hit
		c.Count(lo, lo+500, true, false)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			oid := c.Insert(n + i%1000)
			if i%2 == 0 {
				c.Delete(oid)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			ranges := make([]expr.Range, 40)
			for iter := 0; iter < 200; iter++ {
				for i := range ranges {
					lo := rng.Int63n(n/500) * 500
					hi := min(lo+500*(1+rng.Int63n(3)), n)
					if rng.Intn(8) == 0 { // a fresh cut now and then
						lo += rng.Int63n(500)
					}
					ranges[i] = expr.Range{Col: "k", Low: lo, High: hi, LowIncl: true}
				}
				got, _ := c.SelectBatch(ranges, true, true)
				for i, r := range ranges {
					if want := ora.count(r.Low, r.High); got[i].N != want {
						t.Errorf("range [%d, %d): batch counts %d, want %d", r.Low, r.High, got[i].N, want)
						return
					}
				}
			}
		}(int64(g))
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCountBatchConverged counts 64-range batches on converged
// columns shaped like a server's shards: four columns of 250 000 rows
// with about 37 000 cuts each, the batches taken round-robin across them,
// so the four position tables (1 MiB each) do not fit in L2. It reports
// the time a range.
func BenchmarkCountBatchConverged(b *testing.B) {
	const (
		rows, cuts = 250_000, 37_000
		batch      = 64
	)
	rng := rand.New(rand.NewSource(1))
	var cols [4]*Column
	var pools [4][]expr.Range
	for k := range cols {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 30)
		}
		bounds := make([]int64, cuts)
		for i := range bounds {
			bounds[i] = rng.Int63n(1 << 30)
		}
		slices.Sort(bounds)
		bounds = slices.Compact(bounds)
		cols[k] = NewColumn("k", vals)
		for i := 1; i < len(bounds); i++ {
			pools[k] = append(pools[k], expr.Range{Col: "k", Low: bounds[i-1], High: bounds[i], LowIncl: true})
		}
		for _, i := range rng.Perm(len(pools[k])) { // in key order every crack would scan the unsorted tail
			r := pools[k][i]
			cols[k].Count(r.Low, r.High, r.LowIncl, r.HighIncl)
		}
	}
	batches := make([][]expr.Range, 256)
	for i := range batches {
		pool := pools[i%4]
		for range batch {
			batches[i] = append(batches[i], pool[rng.Intn(len(pool))])
		}
	}
	run := AcquireBatchRun()
	defer run.Release()
	cracks := 0
	for _, c := range cols {
		cracks += c.Stats().Cracks
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols[i%4].SelectBatchRun(batches[i%len(batches)], true, true, run)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/range")
	for _, c := range cols {
		cracks -= c.Stats().Cracks
	}
	if cracks != 0 {
		b.Fatalf("the columns cracked %d times: not converged", -cracks)
	}
}

// TestCountBatchOffer: a batch offered read-only (write false) is timed
// by Instr.Batch, as any batch is, only when it is answered whole, and
// takes no write hold and no sampled read hold either way; a declined
// offer records nothing — no timing, no trace event, no counter — and
// shows the observer nothing, even when every range but its last is
// resolved.
func TestCountBatchOffer(t *testing.T) {
	const n, cells = 4096, 16
	c, in := convergedInstr(n, cells, 0)
	step := int64(n / cells)
	cell := func(k int64) Range {
		return Range{Low: k * step, High: (k+1)*step - 1}
	}
	var converged []Range
	for k := int64(0); k < 12; k++ {
		converged = append(converged, cell(k))
	}
	type counters struct {
		batch, read, write uint64
		trace              uint64
		stats              Stats
		cuts               string
	}
	snap := func() counters {
		return counters{in.Batch.Snapshot().Count, in.ReadHold.Snapshot().Count, in.WriteHold.Snapshot().Count,
			in.Trace.Mark(), c.Stats(), c.Index().String()}
	}
	counts := make([]int, len(converged)+1)
	observed := 0
	observe := func(Range) { observed++ }

	missing := append(slices.Clone(converged), Range{Low: 5, High: 16})
	before := snap()
	if c.countBatch(missing, counts, observe, false) {
		t.Fatal("an offer with an unresolved range answered")
	}
	if after := snap(); after != before || observed != 0 {
		t.Fatalf("the declined offer recorded %+v (observer %d), before %+v", after, observed, before)
	}

	if !c.countBatch(converged, counts, observe, false) {
		t.Fatal("an offer of converged ranges declined")
	}
	after := snap()
	for i, r := range converged {
		if want := c.Count(r.Low, r.High, true, true); counts[i] != want {
			t.Errorf("range %d: offer counts %d, Count %d", i, counts[i], want)
		}
	}
	if after.batch != before.batch+1 || after.read != before.read || after.write != before.write || after.trace != before.trace {
		t.Fatalf("an answered offer: batch %d → %d, read holds %d → %d, write holds %d → %d, trace %d → %d; want one batch timing only",
			before.batch, after.batch, before.read, after.read, before.write, after.write, before.trace, after.trace)
	}
	if q := after.stats.Queries - before.stats.Queries; q != len(converged) || observed != len(converged) || after.cuts != before.cuts {
		t.Fatalf("an answered offer counted %d queries and observed %d, want %d each, and no new cut", q, observed, len(converged))
	}
}
