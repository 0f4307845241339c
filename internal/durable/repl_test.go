package durable

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// waitDurable blocks until the WAL's committed frontier reaches seq.
func waitDurable(t *testing.T, w *WAL, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		durable, ch := w.CommitSignal()
		if durable >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frontier stuck at %d, want >= %d", durable, seq)
		}
		select {
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// streamFrames reads [from, end) in budgets of one byte: every call must
// return at least one frame. It returns the frames concatenated.
func streamFrames(t *testing.T, w *WAL, from, end uint64) []byte {
	t.Helper()
	var out []byte
	for from < end {
		chunk, next, err := w.ReadCommitted(from, 1)
		if err != nil {
			t.Fatalf("read at %d: %v", from, err)
		}
		if len(chunk) == 0 || next <= from {
			t.Fatalf("empty chunk at %d with records remaining", from)
		}
		out = append(out, chunk...)
		from = next
	}
	return out
}

// framesOf frames records the way Append writes them.
func framesOf(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = frameRecord(b, r)
	}
	return b
}

func TestReadCommittedStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	recs := testRecords()
	for _, rec := range recs {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	waitDurable(t, w, uint64(len(recs)))

	// Stream in tiny byte budgets: every call returns at least one frame,
	// and the concatenation is exactly the appended frames as the log
	// holds them, which decode to the appended records.
	from := uint64(len(recs))
	frames := streamFrames(t, w, 0, from)
	if want := framesOf(recs); !bytes.Equal(frames, want) {
		t.Fatalf("streamed frames differ from the appended ones:\n got %x\nwant %x", frames, want)
	}
	got, err := DecodeRecords(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("streamed records mismatch:\n got %+v\nwant %+v", got, recs)
	}

	// At the frontier: empty, same position, no error.
	chunk, next, err := w.ReadCommitted(from, 1<<20)
	if err != nil || len(chunk) != 0 || next != from {
		t.Fatalf("read at frontier = (%d recs, next %d, %v), want (0, %d, nil)", len(chunk), next, err, from)
	}
}

func TestCommitSignalWakes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	_, ch := w.CommitSignal()
	if _, err := w.Append(Record{Kind: KindCreate, Table: "t", Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("commit signal never fired after append")
	}
	durable, _ := w.CommitSignal()
	if durable != 1 {
		t.Fatalf("frontier %d after one committed append, want 1", durable)
	}
}

func TestRotateArchivesSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Three segments of two records each, rotating between them. The
	// rotated-out segments must stay readable: a replica behind a
	// checkpoint still streams the full history.
	var want []Record
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 2; i++ {
			rec := Record{Kind: KindInsert, Table: "t", Rows: [][]int64{{int64(seg), int64(i)}}}
			want = append(want, rec)
			if _, err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		waitDurable(t, w, uint64((seg+1)*2))
		if seg < 2 {
			if err := w.Rotate(w.Seq()); err != nil {
				t.Fatal(err)
			}
		}
	}

	frames := streamFrames(t, w, 0, uint64(len(want)))
	if !bytes.Equal(frames, framesOf(want)) {
		t.Fatalf("post-rotation frames differ from the appended ones")
	}
	got, err := DecodeRecords(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-rotation stream mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestArchivePruningRequiresSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// More rotations than archiveRetain: the oldest segments are pruned
	// and a read from seq 0 must demand a snapshot instead of silently
	// skipping records.
	for seg := 0; seg < archiveRetain+2; seg++ {
		if _, err := w.Append(Record{Kind: KindInsert, Table: "t", Rows: [][]int64{{int64(seg)}}}); err != nil {
			t.Fatal(err)
		}
		waitDurable(t, w, uint64(seg+1))
		if err := w.Rotate(w.Seq()); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = w.ReadCommitted(0, 1<<20)
	var sre *SnapshotRequiredError
	if !errors.As(err, &sre) {
		t.Fatalf("read of pruned position returned %v, want SnapshotRequiredError", err)
	}
	if sre.BaseSeq != w.Status().BaseSeq {
		t.Fatalf("error names base %d, live base is %d", sre.BaseSeq, w.Status().BaseSeq)
	}

	// The retained suffix is still served: base of the oldest kept
	// archive onward reads fine.
	arches := listArchives(path)
	if len(arches) != archiveRetain {
		t.Fatalf("kept %d archives, want %d", len(arches), archiveRetain)
	}
	frames, _, err := w.ReadCommitted(arches[0], 1<<20)
	if err != nil {
		t.Fatalf("read from oldest kept archive: %v", err)
	}
	if recs, err := DecodeRecords(frames); err != nil || len(recs) == 0 {
		t.Fatal("oldest kept archive served no records")
	}
}
