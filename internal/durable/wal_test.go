package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindCreate, Table: "t", Cols: []string{"k", "v"}, Key: "k", Part: "range"},
		{Kind: KindTapestry, Table: "w", N: 100, Alpha: 2, Seed: 7},
		{Kind: KindInsert, Table: "t", Rows: [][]int64{{1, 10}, {2, 20}, {-3, 30}}},
		{Kind: KindInsert, Table: "t", Rows: [][]int64{{4, 40}}},
		{Kind: KindDrop, Table: "w"},
		{Kind: KindCreate, Table: "u", Cols: []string{"a"}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range testRecords() {
		enc := encodeRecord(nil, rec)
		got, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d round-trip:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

// insertPayload is an insert record of table "t" that claims nrows rows
// of arity values and carries none of them.
func insertPayload(nrows, arity uint32) []byte {
	b := []byte{byte(KindInsert), 1, 0, 0, 0, 't'}
	b = binary.LittleEndian.AppendUint32(b, nrows)
	return binary.LittleEndian.AppendUint32(b, arity)
}

// TestInsertRecordBounded: an insert's nrows × arity is bounded by the
// payload before anything is allocated, and an insert of no rows or of
// rows without values is refused. A 14-byte payload claiming 2^20 rows of
// arity 0 used to decode into 2^20 empty rows; one claiming 2^32 − 1 rows
// would have asked for about 100 GB of row headers.
func TestInsertRecordBounded(t *testing.T) {
	for _, c := range []struct{ nrows, arity uint32 }{
		{1 << 20, 0}, {math.MaxUint32, 0}, {0, 3}, {1 << 20, 1}, {math.MaxUint32, math.MaxUint32},
	} {
		payload := insertPayload(c.nrows, c.arity)
		if rec, err := decodeRecord(payload); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d rows × %d: decoded %d rows, err %v; want ErrCorrupt", c.nrows, c.arity, len(rec.Rows), err)
		}
		allocs := testing.AllocsPerRun(5, func() { decodeRecord(payload) })
		size := allocBytes(func() { decodeRecord(payload) })
		if allocs > 16 || size > 4<<10 {
			t.Fatalf("%d rows × %d: refusal took %.0f allocations of %d bytes, want ≤ 16 and ≤ 4 KiB",
				c.nrows, c.arity, allocs, size)
		}
	}
}

// allocBytes reports the bytes the heap handed out while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecordTrailingBytesRefused: every record kind ends where its
// encoding does; a byte past it is corruption, never silently dropped.
func TestRecordTrailingBytesRefused(t *testing.T) {
	recs := append(testRecords(), Record{Kind: KindDelete, Table: "t", Conds: []Cond{{Col: "k", Op: "<", Val: 3}}})
	for i, rec := range recs {
		enc := append(encodeRecord(nil, rec), 0)
		if _, err := decodeRecord(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record %d (%s) with a trailing byte: err %v, want ErrCorrupt", i, rec.Kind, err)
		}
	}
}

// TestGoldenWAL: a checked-in log of testRecords() (base 3), frames an
// earlier build wrote, replays to those records, and re-framing them
// gives back the file byte for byte — the record codec and the frame
// format have not moved.
func TestGoldenWAL(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wal-testrecords.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Record
	w, err := Open(path, 0, func(_ uint64, r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(got, testRecords()) {
		t.Fatalf("golden WAL replayed\n %+v\nwant %+v", got, testRecords())
	}
	if st := w.Status(); st.BaseSeq != 3 || st.Bytes != int64(len(golden)) {
		t.Fatalf("golden WAL opened as %+v", st)
	}
	refr := append(walMagic[:], walVersion)
	refr = binary.LittleEndian.AppendUint64(refr, 3)
	for _, r := range got {
		refr = frameRecord(refr, r)
	}
	if !bytes.Equal(refr, golden) {
		t.Fatalf("re-framed golden WAL differs:\n got %x\nwant %x", refr, golden)
	}
}

// TestStrategyRecordRefused: a log an earlier build wrote from
// testRecords() when they still held two crack-strategy records (kind 5)
// is refused as corrupt, naming the record and the last build that
// replays it, and its bytes are left as they were.
func TestStrategyRecordRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "wal-strategy-records.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(path, 0, nil)
	if err == nil {
		w.Close()
		t.Fatal("a log holding strategy records opened")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "record kind 5 is a crack-strategy record") ||
		!strings.Contains(err.Error(), strategyRecordBuild) {
		t.Fatalf("refusal %q: want ErrCorrupt naming kind 5, the crack-strategy record, and build %s", err, strategyRecordBuild)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused log changed (%v): %d bytes, was %d", err, len(after), len(old))
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i, rec := range recs {
		seq, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(5 + i); seq != want {
			t.Fatalf("record %d got seq %d, want %d", i, seq, want)
		}
	}
	st := w.Status()
	if st.BaseSeq != 5 || st.NextSeq != 5+uint64(len(recs)) || st.Records != uint64(len(recs)) {
		t.Fatalf("status %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	var seqs []uint64
	w2, err := Open(path, 0, func(seq uint64, r Record) error {
		got = append(got, r)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, mismatch:\n got %+v\nwant %+v", len(got), got, recs)
	}
	for i, s := range seqs {
		if want := uint64(5 + i); s != want {
			t.Fatalf("replay seq[%d] = %d, want %d", i, s, want)
		}
	}
	if w2.Seq() != 5+uint64(len(recs)) {
		t.Fatalf("reopened next seq %d", w2.Seq())
	}
}

// TestWALTruncatedTailEveryOffset is the crash-consistency property
// test: whatever byte the file is cut at — a torn append, a lost page —
// recovery must replay exactly the maximal prefix of complete records
// and position the log to append cleanly after it.
func TestWALTruncatedTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	// Record the file size after each append so we know the true record
	// boundaries.
	bounds := []int64{walHeaderSize}
	for _, rec := range recs {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Status().Bytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[len(bounds)-1] {
		t.Fatalf("file is %d bytes, status said %d", len(full), bounds[len(bounds)-1])
	}

	wantPrefix := func(cut int64) int {
		n := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				n = i
			}
		}
		return n
	}

	trunc := filepath.Join(dir, "trunc.log")
	for cut := int64(walHeaderSize); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(trunc, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		tw, err := Open(trunc, 0, func(_ uint64, r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := wantPrefix(cut)
		if len(got) != want {
			tw.Close()
			t.Fatalf("cut at %d: replayed %d records, want prefix of %d", cut, len(got), want)
		}
		if want > 0 && !reflect.DeepEqual(got, recs[:want]) {
			tw.Close()
			t.Fatalf("cut at %d: prefix content mismatch", cut)
		}
		// The log must accept appends after tail truncation, and the
		// appended record must land at the prefix's next seq.
		seq, err := tw.Append(Record{Kind: KindDrop, Table: "x"})
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if seq != uint64(want) {
			t.Fatalf("cut at %d: post-recovery seq %d, want %d", cut, seq, want)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALHeaderCorruption: a mangled header is corruption, not a torn
// tail — recovery must refuse rather than serve an empty store.
func TestWALHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindDrop, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, 0, nil); err == nil {
		t.Fatal("Open accepted a WAL with a corrupt header")
	}
}

// TestWALBitFlipStopsPrefix: a checksum-failing record ends the replayed
// prefix even when complete records follow it — replaying past a
// corrupt record could interleave mutations out of order.
func TestWALBitFlipStopsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	var afterFirst int64
	for i, rec := range recs {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			afterFirst = w.Status().Bytes
		}
	}
	w.Close()
	data, _ := os.ReadFile(path)
	data[afterFirst+6] ^= 0x01 // inside record 2's payload
	os.WriteFile(path, data, 0o644)
	var got int
	w2, err := Open(path, 0, func(uint64, Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got != 1 {
		t.Fatalf("replayed %d records past a bit flip, want 1", got)
	}
}

// TestWALGroupCommitConcurrent hammers Append from many goroutines and
// checks every acked record is durable and the sequence numbers are
// dense from the log's base — the group-commit batching must lose or
// reorder nothing. A non-zero base checks the seq arithmetic.
func TestWALGroupCommitConcurrent(t *testing.T) {
	for _, base := range []uint64{0, 7} {
		t.Run(fmt.Sprintf("base=%d", base), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := Create(path, base)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			const perWorker = 50
			var wg sync.WaitGroup
			seqs := make([][]uint64, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						seq, err := w.Append(Record{
							Kind: KindInsert, Table: "t",
							Rows: [][]int64{{int64(g), int64(i)}},
						})
						if err != nil {
							t.Error(err)
							return
						}
						seqs[g] = append(seqs[g], seq)
					}
				}(g)
			}
			wg.Wait()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			seen := make(map[uint64]bool)
			for _, ss := range seqs {
				for _, s := range ss {
					if seen[s] {
						t.Fatalf("seq %d acked twice", s)
					}
					seen[s] = true
				}
			}
			next := base
			byOrder := make(map[uint64][2]int64)
			w2, err := Open(path, base, func(seq uint64, r Record) error {
				if seq != next || !seen[seq] {
					return fmt.Errorf("replayed seq %d, want %d (acked: %v)", seq, next, seen[seq])
				}
				next++
				byOrder[seq] = [2]int64{r.Rows[0][0], r.Rows[0][1]}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if got := next - base; got != workers*perWorker {
				t.Fatalf("recovered %d records, want %d", got, workers*perWorker)
			}
			// Each worker's own records must appear in its program order.
			for g := 0; g < workers; g++ {
				last := int64(-1)
				for _, s := range seqs[g] {
					rec := byOrder[s]
					if rec[0] != int64(g) || rec[1] <= last {
						t.Fatalf("worker %d order violated at seq %d: %v after %d", g, s, rec, last)
					}
					last = rec[1]
				}
			}
		})
	}
}

// TestWALGroupCommitBatches: with no window to tune, batching must come
// from fsync latency alone. The observer holds every flusher pass for
// about 5 ms — a slow disk — so appends from eight writers queue behind
// each sync and commit together. Each writer's acks must still be unique
// and in seq order.
func TestWALGroupCommitBatches(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "wal.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var passes, records atomic.Int64
	w.SetObserver(&Observer{
		FsyncNS:      func(int64) { time.Sleep(5 * time.Millisecond) },
		BatchRecords: func(n int64) { passes.Add(1); records.Add(n) },
	})
	const writers = 8
	const perWriter = 10
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for g := range seqs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append(Record{Kind: KindDrop, Table: "t"})
				if err != nil {
					t.Error(err)
					return
				}
				seqs[g] = append(seqs[g], seq)
			}
		}(g)
	}
	wg.Wait()
	if records.Load() != writers*perWriter {
		t.Fatalf("observer saw %d records, want %d", records.Load(), writers*perWriter)
	}
	if per := float64(records.Load()) / float64(passes.Load()); per < 2 {
		t.Fatalf("%d records in %d fsyncs (%.2f per fsync) — appends did not batch behind a slow sync",
			records.Load(), passes.Load(), per)
	}
	seen := make(map[uint64]bool)
	for g, ss := range seqs {
		for i, s := range ss {
			if seen[s] || s >= writers*perWriter {
				t.Fatalf("writer %d got seq %d twice or out of range", g, s)
			}
			seen[s] = true
			if i > 0 && s <= ss[i-1] {
				t.Fatalf("writer %d acked out of order: %d after %d", g, s, ss[i-1])
			}
		}
	}
}

func TestWALRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(Record{Kind: KindDrop, Table: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(5); err != nil {
		t.Fatal(err)
	}
	st := w.Status()
	if st.BaseSeq != 5 || st.Records != 0 {
		t.Fatalf("after rotate: %+v", st)
	}
	if seq, err := w.Append(Record{Kind: KindDrop, Table: "u"}); err != nil || seq != 5 {
		t.Fatalf("append after rotate: seq %d err %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	w2, err := Open(path, 0, func(seq uint64, r Record) error {
		if seq != 5 {
			t.Fatalf("rotated log replayed seq %d, want 5", seq)
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || got[0].Table != "u" {
		t.Fatalf("rotated log replayed %+v", got)
	}
}

// rotateRounds appends one record and rotates, n times, returning the
// final sequence number.
func rotateRounds(t *testing.T, w *WAL, n int) uint64 {
	t.Helper()
	var seq uint64
	for i := 0; i < n; i++ {
		s, err := w.Append(Record{Kind: KindDrop, Table: "t"})
		if err != nil {
			t.Fatal(err)
		}
		seq = s + 1
		if err := w.Rotate(seq); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestWALArchiveRetain: rotation keeps the archiveRetain newest
// segments as replication history, dropping oldest-first.
func TestWALArchiveRetain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rotateRounds(t, w, archiveRetain+3)
	// Round i archives the segment based at i: the survivors must be the
	// newest, not an arbitrary set.
	want := []uint64{3, 4, 5, 6}
	if bases := listArchives(path); !reflect.DeepEqual(bases, want) {
		t.Fatalf("kept archives %v, want %v", bases, want)
	}
}

// TestWALPruneFloorProtects: segments holding records the slowest
// follower has not acked survive pruning beyond the archiveRetain
// newest; lifting the floor prunes back to archiveRetain at the next
// rotation.
func TestWALPruneFloorProtects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetPruneFloor(0) // a follower still needs everything from seq 0
	rotateRounds(t, w, archiveRetain+2)
	if bases := listArchives(path); !reflect.DeepEqual(bases, []uint64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("floor 0: want all 6 archives kept, got %v", bases)
	}
	// Follower catches up partway: only segments ending after its ack
	// position survive beyond the newest four. Segment i spans [i, i+1),
	// so floor 2 protects the segment based at 2.
	w.SetPruneFloor(2)
	rotateRounds(t, w, 1)
	if bases := listArchives(path); !reflect.DeepEqual(bases, []uint64{2, 3, 4, 5, 6}) {
		t.Fatalf("floor 2: want archives [2 3 4 5 6], got %v", bases)
	}
	// No follower lagging at all: count-based retention again.
	w.SetPruneFloor(^uint64(0))
	rotateRounds(t, w, 1)
	if bases := listArchives(path); !reflect.DeepEqual(bases, []uint64{4, 5, 6, 7}) {
		t.Fatalf("lifted floor: want archives [4 5 6 7], got %v", bases)
	}
}

// TestWALSurface pins the log's exported method set, so a tuning setter
// cannot come back without this count moving with it.
func TestWALSurface(t *testing.T) {
	const exported = 9
	typ := reflect.TypeOf(&WAL{})
	if n := typ.NumMethod(); n != exported {
		names := make([]string, n)
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		t.Fatalf("*durable.WAL exports %d methods, want %d: %v", n, exported, names)
	}
}
