package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The WAL file layout:
//
//	magic   [4]byte  "CWAL"
//	version uint8    1
//	baseSeq uint64   sequence number of the first record in this file
//	records ...      frameRecord frames, one per logged mutation
//
// Record seq numbers are implicit: the i-th frame has seq baseSeq+i.
// Rotation (after a checkpoint) replaces the file with an empty one whose
// baseSeq equals the checkpoint's applied-seq stamp, so replay can always
// line the log up against any snapshot: records with seq below the
// snapshot stamp are already inside the image and are skipped.

var walMagic = [4]byte{'C', 'W', 'A', 'L'}

const walVersion = 1
const walHeaderSize = 4 + 1 + 8

// WAL is an append-only, checksummed mutation log with group commit:
// concurrent Append calls are batched into one write+fsync, so the
// per-insert durability cost is amortized across whatever concurrency
// the server is sustaining. Append returns only after the record is on
// stable storage — the caller may then apply and ack.
type WAL struct {
	path string

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	cur    *walBatch // batch being accumulated for the next flush
	err    error     // sticky: a failed flush poisons the log
	closed bool
	done   chan struct{} // flusher exit

	base   uint64 // seq of the first record in the current file
	seq    uint64 // seq of the next record to append
	durSeq uint64 // seq one past the last record on stable storage
	bytes  int64  // current file size

	// commitCh is closed and replaced whenever durSeq advances (or the
	// log rotates or closes) — the broadcast replication subscribers wait
	// on instead of polling.
	commitCh chan struct{}

	// pruneFloor protects every rotated segment still holding records a
	// connected subscriber needs, beyond the archiveRetain newest: a
	// segment whose end exceeds the floor survives. The default
	// (MaxUint64) protects nothing extra.
	pruneFloor uint64

	// obs carries the optional observer callbacks (SetObserver). Held
	// behind an atomic pointer so observation can be attached to a live
	// log and the unobserved path pays one load per event.
	obs atomic.Pointer[Observer]
}

// Observer receives WAL timing signals. It is a struct of plain func
// fields — not an interface into the obs package — so this package
// stays free of non-stdlib-shaped dependencies; the shard layer wires
// the fields to histograms. Any field may be nil.
type Observer struct {
	AppendNS     func(int64) // whole Append call: queue + group commit + fsync
	FsyncNS      func(int64) // one flusher write+fsync pass
	BatchRecords func(int64) // records committed by that pass
}

// SetObserver attaches (or, with nil, detaches) the timing observer.
// Safe to call concurrently with appends.
func (w *WAL) SetObserver(o *Observer) { w.obs.Store(o) }

// walBatch is one group-commit unit: every record appended while the
// previous batch was being fsynced.
type walBatch struct {
	buf  []byte
	n    int // records in the batch
	err  error
	done chan struct{}
}

// Status is a point-in-time description of the log (the /wal meta).
type Status struct {
	Path    string
	BaseSeq uint64
	NextSeq uint64
	Records uint64 // records in the current file
	Bytes   int64
}

// Create makes a fresh WAL at path (truncating any existing file) whose
// first record will carry seq baseSeq.
func Create(path string, baseSeq uint64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err = writeHeader(f, baseSeq); err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return newWAL(path, f, baseSeq, walHeaderSize), nil
}

// writeHeader writes and fsyncs the header of a segment based at base.
func writeHeader(f *os.File, base uint64) error {
	hdr := append(walMagic[:], walVersion)
	return writeAndSync(f, binary.LittleEndian.AppendUint64(hdr, base))
}

// readHeader checks a segment's header and returns the base it names, a
// reader at the first frame, and the bytes past the header (negative when
// the header is cut short). A short header, a wrong magic or a wrong
// version is ErrCorrupt. The file size bounds every frame length: a
// corrupt length field larger than the remaining bytes is a torn frame by
// definition, and checking it up front keeps a bit-flipped 1 GB length
// from being allocated before the read would have failed anyway. A failed
// Stat must abort the read — treating it as size 0 would classify every
// record as torn tail and let Open truncate a healthy log.
func readHeader(f *os.File) (uint64, *bufio.Reader, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("durable: stat WAL: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	left := fi.Size() - walHeaderSize
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, left, fmt.Errorf("%w: short WAL header: %v", ErrCorrupt, err)
	}
	if [4]byte(hdr[:4]) != walMagic || hdr[4] != walVersion {
		return 0, nil, left, fmt.Errorf("%w: bad WAL header %q", ErrCorrupt, hdr[:5])
	}
	return binary.LittleEndian.Uint64(hdr[5:]), br, left, nil
}

func newWAL(path string, f *os.File, baseSeq uint64, size int64) *WAL {
	w := &WAL{
		path:       path,
		f:          f,
		base:       baseSeq,
		seq:        baseSeq,
		durSeq:     baseSeq,
		bytes:      size,
		done:       make(chan struct{}),
		commitCh:   make(chan struct{}),
		pruneFloor: ^uint64(0),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.flusher()
	return w
}

// Open replays an existing WAL (calling apply for every complete record,
// in order, with its seq) and returns the log positioned to append. A
// truncated or corrupt tail — the expected residue of a crash mid-append
// — is cut off at the last complete record, so recovery is always
// prefix-consistent. If the file does not exist, a fresh log with
// baseSeq is created and apply is never called.
//
// apply may be nil (pure open). An apply error aborts the open: the
// store is in an undefined partial state and the caller must not serve.
func Open(path string, baseSeq uint64, apply func(seq uint64, r Record) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return Create(path, baseSeq)
	}
	if err != nil {
		return nil, err
	}
	base, goodEnd, recs, err := scanWAL(f, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Cut the torn tail (no-op when the file ends on a record boundary).
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := newWAL(path, f, base, goodEnd)
	w.seq = base + recs
	w.durSeq = base + recs
	return w, nil
}

// scanWAL walks the frames from the start, applying complete records and
// reporting where the valid prefix ends: at the first torn frame.
func scanWAL(f *os.File, apply func(uint64, Record) error) (base uint64, goodEnd int64, recs uint64, err error) {
	base, br, left, err := readHeader(f)
	if err != nil {
		return 0, 0, 0, err
	}
	goodEnd = walHeaderSize
	var frame []byte
	for {
		frame, err = readFrame(br, left, frame[:0])
		if err == io.EOF || err == errTornFrame {
			return base, goodEnd, recs, nil // the valid prefix ends here
		}
		if err != nil {
			return base, goodEnd, recs, err
		}
		rec, err := decodeRecord(frame[4 : len(frame)-4])
		if err != nil {
			// The checksum matched but the payload is structurally invalid:
			// that is corruption, not a torn tail — refuse to serve.
			return base, goodEnd, recs, err
		}
		if apply != nil {
			if err := apply(base+recs, rec); err != nil {
				return base, goodEnd, recs, fmt.Errorf("durable: replay seq %d (%s %s): %w",
					base+recs, rec.Kind, rec.Table, err)
			}
		}
		goodEnd += int64(len(frame))
		left -= int64(len(frame))
		recs++
	}
}

// Append logs one record and returns its sequence number after the
// record — batched with any concurrent appends — is written and fsynced.
func (w *WAL) Append(r Record) (uint64, error) {
	var t0 time.Time
	o := w.obs.Load()
	if o != nil && o.AppendNS != nil {
		t0 = time.Now()
	}
	w.mu.Lock()
	if w.err != nil {
		defer w.mu.Unlock()
		return 0, w.err
	}
	if w.closed {
		defer w.mu.Unlock()
		return 0, fmt.Errorf("durable: append to closed WAL")
	}
	if w.cur == nil {
		w.cur = &walBatch{done: make(chan struct{})}
		w.cond.Signal()
	}
	b := w.cur
	b.buf = frameRecord(b.buf, r)
	b.n++
	seq := w.seq
	w.seq++
	w.mu.Unlock()

	<-b.done
	if o != nil && o.AppendNS != nil {
		o.AppendNS(time.Since(t0).Nanoseconds())
	}
	return seq, b.err
}

// flusher is the group-commit loop: it takes whatever batch accumulated
// while the previous write+fsync was in flight and commits it in one go.
// Batching comes from fsync latency alone — the longer a sync takes, the
// more appends queue behind it — so there is no window to tune.
func (w *WAL) flusher() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for w.cur == nil && !w.closed {
			w.cond.Wait()
		}
		if w.cur == nil && w.closed {
			w.mu.Unlock()
			return
		}
		b := w.cur
		w.cur = nil
		f := w.f
		w.mu.Unlock()

		var err error
		if o := w.obs.Load(); o != nil && (o.FsyncNS != nil || o.BatchRecords != nil) {
			t0 := time.Now()
			err = writeAndSync(f, b.buf)
			if o.FsyncNS != nil {
				o.FsyncNS(time.Since(t0).Nanoseconds())
			}
			if o.BatchRecords != nil {
				o.BatchRecords(int64(b.n))
			}
		} else {
			err = writeAndSync(f, b.buf)
		}

		w.mu.Lock()
		if err != nil {
			w.err = err
		} else {
			w.bytes += int64(len(b.buf))
			w.durSeq += uint64(b.n)
			close(w.commitCh) // wake replication subscribers
			w.commitCh = make(chan struct{})
		}
		w.mu.Unlock()
		b.err = err
		close(b.done)
	}
}

func writeAndSync(f *os.File, buf []byte) error {
	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Sync()
}

// Seq returns the sequence number the next appended record will carry —
// equivalently, one past the last durable record. A snapshot taken while
// appends are quiesced stamps itself with this value.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Status reports the log's current shape.
func (w *WAL) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Status{
		Path:    w.path,
		BaseSeq: w.base,
		NextSeq: w.seq,
		Records: w.seq - w.base,
		Bytes:   w.bytes,
	}
}

// archiveRetain is how many rotated segments are kept next to the live
// log as replication history (see Rotate). A follower lagging by more
// rotations than this, and not protected by the prune floor, is forced
// into snapshot bootstrap.
const archiveRetain = 4

// SetPruneFloor protects archived segments still needed by the slowest
// connected replication subscriber: no segment containing records at or
// above seq is pruned, even beyond the archiveRetain newest. MaxUint64
// (the default) restores pure count-based retention.
func (w *WAL) SetPruneFloor(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pruneFloor = seq
}

// archivePath names the rotated segment that began at base.
func archivePath(path string, base uint64) string {
	return fmt.Sprintf("%s.%d", path, base)
}

// Rotate replaces the log with a fresh empty file whose baseSeq is the
// given checkpoint stamp, atomically. The caller must have quiesced
// appenders (no Append may be in flight): the checkpoint that justifies
// retiring the old records and the rotation must happen under the same
// exclusion, or a record could slip between snapshot and rotation and be
// lost.
//
// The retired segment is not destroyed: it is renamed to
// <path>.<oldBase> and kept (the newest archiveRetain of them) purely as
// replication history, so a subscriber a few records behind the rotation
// point can still stream the suffix instead of re-bootstrapping from the
// snapshot. Crash recovery never reads archives — every record in them
// is covered by the checkpoint image that justified the rotation.
func (w *WAL) Rotate(baseSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("durable: rotate of closed WAL")
	}
	if w.cur != nil {
		return fmt.Errorf("durable: rotate with appends in flight")
	}
	tmp := w.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// Archive the retired segment before the new file takes its name. A
	// crash in between leaves no live log at all — recovery then creates
	// a fresh one based at the checkpoint stamp, which is exactly what
	// this rotation was about to install.
	if err = writeHeader(nf, baseSeq); err == nil {
		if err = os.Rename(w.path, archivePath(w.path, w.base)); os.IsNotExist(err) {
			err = nil
		}
	}
	if err == nil {
		err = Publish(tmp, w.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	w.f.Close()
	w.f = nf
	w.base = baseSeq
	w.seq = baseSeq
	w.durSeq = baseSeq
	w.bytes = walHeaderSize
	pruneArchives(w.path, w.pruneFloor)
	close(w.commitCh) // subscribers must re-read the rotated log's state
	w.commitCh = make(chan struct{})
	return nil
}

// listArchives returns the bases of the retired segments next to path,
// ascending.
func listArchives(path string) []uint64 {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil
	}
	var bases []uint64
	for _, m := range matches {
		var base uint64
		if _, err := fmt.Sscanf(m[len(path):], ".%d", &base); err == nil &&
			m == archivePath(path, base) { // reject .tmp and partial parses
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

// pruneArchives deletes the oldest archived segments until archiveRetain
// remain, stopping early at the first segment a subscriber at floor
// still needs. Segment i spans [bases[i], bases[i+1]) — a segment whose
// end exceeds floor holds records the slowest follower has not acked yet
// and must survive.
func pruneArchives(path string, floor uint64) {
	bases := listArchives(path)
	for len(bases) > archiveRetain && bases[1] <= floor {
		os.Remove(archivePath(path, bases[0]))
		bases = bases[1:]
	}
}

// Close drains the flusher and closes the file. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Signal()
	close(w.commitCh) // unblock subscribers so they observe the close
	w.commitCh = make(chan struct{})
	w.mu.Unlock()
	<-w.done
	return w.f.Close()
}

// SnapshotRequiredError reports that a requested replication position
// has been rotated out of the log: the subscriber must bootstrap from a
// snapshot covering at least BaseSeq before resuming.
type SnapshotRequiredError struct {
	BaseSeq uint64
}

func (e *SnapshotRequiredError) Error() string {
	return fmt.Sprintf("durable: seq below WAL base %d, snapshot required", e.BaseSeq)
}

// CommitSignal returns the durable frontier — one past the last record
// on stable storage — together with a channel that is closed the next
// time the frontier moves (a commit, a rotation, or Close). The
// subscription loop of a replication stream is:
//
//	durable, ch := w.CommitSignal()
//	if from < durable { read and ship }
//	else { wait on ch (or the subscriber's own cancellation) }
func (w *WAL) CommitSignal() (uint64, <-chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durSeq, w.commitCh
}

// ReadCommitted returns the committed frames with sequence numbers in
// [from, durable-frontier) as the log holds them, each checked by the
// reader boot uses (DecodeRecords parses them), and the next sequence to
// request. It stops once the batch exceeds maxBytes of payload, and
// returns at least one frame whenever any is available. The read uses its
// own descriptor, so it never disturbs (or blocks behind) the append
// path; a concurrent rotation is detected by the file header's baseSeq
// and retried against the new log.
//
// A from below the current baseSeq is served from the archived segments
// Rotate keeps; once it predates those too, *SnapshotRequiredError is
// returned — the remaining records live only inside the checkpoint image
// that justified the rotations.
func (w *WAL) ReadCommitted(from uint64, maxBytes int) ([]byte, uint64, error) {
	for {
		w.mu.Lock()
		base, durable, path, closed := w.base, w.durSeq, w.path, w.closed
		w.mu.Unlock()
		if closed {
			return nil, from, fmt.Errorf("durable: read from closed WAL")
		}
		if from >= durable {
			return nil, from, nil
		}
		if from >= base {
			frames, next, err := readRange(path, base, from, durable, maxBytes)
			if err == errWALRotated {
				continue // the file was swapped under us; re-resolve and retry
			}
			return frames, next, err
		}
		// Each archive spans [its base, the next newer segment's base):
		// rotations happen at the tip with appends quiesced, so an archived
		// segment is always complete.
		bases := append(listArchives(path), base)
		if i := sort.Search(len(bases), func(i int) bool { return bases[i] > from }) - 1; i >= 0 {
			frames, next, err := readRange(archivePath(path, bases[i]), bases[i], from, bases[i+1], maxBytes)
			if err == nil {
				return frames, next, nil
			}
		}
		// Whatever went wrong — pruned mid-read, raced a rotation,
		// corrupt — the checkpoint image is the one source guaranteed to
		// cover this position.
		return nil, from, &SnapshotRequiredError{BaseSeq: base}
	}
}

// errWALRotated is readRange's internal retry signal: the opened file's
// header no longer matches the base the caller resolved.
var errWALRotated = errors.New("durable: wal rotated during read")

// readRange scans one log file and returns the frames with seq in
// [from, limit), honoring maxBytes. Records below the durable frontier
// are fully written before the frontier advances, so a torn frame within
// the range is corruption.
func readRange(path string, wantBase, from, limit uint64, maxBytes int) ([]byte, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, from, err
	}
	defer f.Close()
	base, br, left, err := readHeader(f)
	switch {
	case err != nil && left < 0, err == nil && base != wantBase:
		return nil, from, errWALRotated // a fresh rotation target, or a newer log: retry
	case err != nil:
		return nil, from, err
	}
	var out []byte
	next, payload := from, 0
	for seq := wantBase; seq < limit && (len(out) == 0 || payload < maxBytes); seq++ {
		start := len(out)
		if out, err = readFrame(br, left, out); err != nil {
			return nil, from, fmt.Errorf("%w: committed record %d: %v", ErrCorrupt, seq, err)
		}
		left -= int64(len(out) - start)
		if seq < from {
			out = out[:start] // inside the subscriber's already-applied prefix
			continue
		}
		next = seq + 1
		payload += len(out) - start - 8
	}
	return out, next, nil
}
