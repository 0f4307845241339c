// Package durable is the persistence subsystem: an append-only,
// checksummed insert WAL with group-commit batching and safe
// truncated-tail recovery (wal.go), plus store images that capture each
// column's cut keys, cracked OID order and strategy RNG state (image.go:
// one element format, a full image being the base of a delta chain).
// Together they give a cracking store what the paper's
// prototype deliberately lacks (§5.2: cracker indexes "are not saved
// between sessions"): a warm restart that resumes at converged per-query
// latency instead of re-paying the first-touch scans Figures 10/11
// measure.
//
// The recovery protocol is image chain + log suffix, in the classic
// write-ahead discipline (cf. ARIES; BigFoot, arXiv 2111.09374 separates
// query processing from durable storage the same way):
//
//  1. every mutating request is appended to the WAL — and fsynced — before
//     it is applied to the in-memory store and before the client is acked;
//  2. a checkpoint atomically writes one chain element (every shard's
//     image for a base, the dirty shards' for a delta) stamped with the
//     WAL sequence number, and rotates the WAL;
//  3. boot verifies and loads the chain, then replays the WAL records
//     whose sequence numbers its stamp does not cover. A torn record at
//     the WAL tail — the expected shape of a crash mid-append — truncates
//     the log to its last complete record: prefix consistency, never a
//     half-applied batch. A torn or corrupt image is not survivable the
//     same way: boot refuses it rather than serve a partial store.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// RecordKind tags one WAL record's operation.
type RecordKind uint8

// The logged operations. Everything that changes what data exists is
// logged, and nothing else is: pure reorganization (cracking, and the
// strategy that drives it) is re-derivable and is captured wholesale by
// snapshots instead.
const (
	// KindCreate is a CreateTable (optionally keyed/partitioned).
	KindCreate RecordKind = iota + 1
	// KindInsert is one InsertRows batch.
	KindInsert
	// KindDrop is a DropTable.
	KindDrop
	// KindTapestry is a LoadTapestry: logged by its generator parameters,
	// not its rows — the tapestry is deterministic in (n, alpha, seed).
	KindTapestry
	// retiredStrategyKind (5) was the crack-strategy record. The value
	// stays reserved, and decodeRecord refuses it by name: a strategy is
	// each server's boot configuration, not data.
	retiredStrategyKind
	// KindDelete is one Delete(table, conds...): logged by its predicate,
	// not the OIDs it resolved to — given an identical record prefix the
	// predicate selects identical tuples, so replicas replaying the log
	// (whose physical crack order legitimately differs) converge on the
	// same live set.
	KindDelete
)

var kindNames = [...]string{KindCreate: "create", KindInsert: "insert", KindDrop: "drop",
	KindTapestry: "tapestry", KindDelete: "delete"}

// strategyRecordBuild is the last build that logs and replays
// crack-strategy records. This build refuses a log holding one, leaving
// it untouched: boot it once with that build and /save, which
// checkpoints the record away.
const strategyRecordBuild = "81866e2"

func (k RecordKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("RecordKind(%d)", uint8(k))
}

// Cond is one comparison of a logged delete predicate. It mirrors the
// public crackdb.Cond shape without importing it (the root package
// imports this one).
type Cond struct {
	Col string
	Op  string
	Val int64
}

// Record is one logged mutation. Field use per kind:
//
//	KindCreate:   Table, Cols; Key+Part when the table is partitioned
//	KindInsert:   Table, Rows (≥ 1 row, all of one arity ≥ 1)
//	KindDrop:     Table
//	KindTapestry: Table, N, Alpha, Seed
//	KindDelete:   Table, Conds (empty = delete every tuple)
type Record struct {
	Kind  RecordKind
	Table string
	Cols  []string
	Key   string
	Part  string
	Rows  [][]int64
	N     int
	Alpha int
	Seed  int64
	Conds []Cond
}

// ErrCorrupt is returned when a WAL, a replicated batch or a snapshot
// image fails validation beyond the recoverable truncated-tail case.
var ErrCorrupt = errors.New("durable: corrupt data")

// MaxName bounds every string the WAL and image codecs carry: a decoder
// refuses a longer one as corruption. A table or column name enters the
// store through CheckNames, so no store ever logs or checkpoints a name
// its own boot would refuse.
const MaxName = 1 << 20

// CheckNames refuses a table or column name longer than MaxName. The
// text is the store's canonical error: the single store and the router
// both check through here, the router before it logs the create.
func CheckNames(table string, cols []string) error {
	if len(table) > MaxName {
		return fmt.Errorf("crackdb: table name of %d bytes exceeds %d", len(table), MaxName)
	}
	for _, c := range cols {
		if len(c) > MaxName {
			return fmt.Errorf("crackdb: column name of %d bytes exceeds %d", len(c), MaxName)
		}
	}
	return nil
}

// encodeRecord appends one record payload to b (no framing, no checksum
// — frameRecord adds those). It writes through the image's encoder, so
// one set of field writers serves both formats.
func encodeRecord(b []byte, r Record) []byte {
	e := imageEncoder{buf: b}
	e.u8(uint8(r.Kind))
	e.str(r.Table)
	switch r.Kind {
	case KindCreate:
		e.str(r.Key)
		e.str(r.Part)
		e.u32(uint32(len(r.Cols)))
		for _, c := range r.Cols {
			e.str(c)
		}
	case KindInsert:
		arity := 0
		if len(r.Rows) > 0 {
			arity = len(r.Rows[0])
		}
		e.u32(uint32(len(r.Rows)))
		e.u32(uint32(arity))
		for _, row := range r.Rows {
			e.int64s(row)
		}
	case KindTapestry:
		e.u64(uint64(r.N))
		e.u64(uint64(r.Alpha))
		e.u64(uint64(r.Seed))
	case KindDelete:
		e.u32(uint32(len(r.Conds)))
		for _, c := range r.Conds {
			e.str(c.Col)
			e.str(c.Op)
			e.u64(uint64(c.Val))
		}
	}
	return e.buf
}

// decodeRecord parses one record payload produced by encodeRecord,
// through the image's decoder: every count is bounded by the payload's
// length before anything is allocated, and a payload must end where its
// record does.
func decodeRecord(b []byte) (Record, error) {
	rd := bytes.NewReader(b)
	d := &imageDecoder{r: rd, limit: int64(len(b))}
	r := d.record()
	if d.err == nil && rd.Len() > 0 {
		d.err = fmt.Errorf("%d trailing bytes after %s record", rd.Len(), r.Kind)
	}
	if d.err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	return r, nil
}

func (d *imageDecoder) record() Record {
	r := Record{Kind: RecordKind(d.u8()), Table: d.str()}
	switch r.Kind {
	case KindCreate:
		r.Key, r.Part = d.str(), d.str()
		r.Cols = make([]string, d.count(uint64(d.u32()), 4, "column"))
		for i := range r.Cols {
			r.Cols[i] = d.str()
		}
	case KindInsert:
		nrows, arity := uint64(d.u32()), uint64(d.u32())
		if d.err == nil && (nrows == 0 || arity == 0) {
			d.err = fmt.Errorf("insert of %d rows of %d values", nrows, arity)
		}
		if n := d.count(nrows*arity, 8, "insert value"); n > 0 {
			vals := d.int64s(n)
			r.Rows = make([][]int64, nrows)
			for i := range r.Rows {
				r.Rows[i] = vals[uint64(i)*arity : uint64(i+1)*arity : uint64(i+1)*arity]
			}
		}
	case KindDrop:
	case KindTapestry:
		r.N, r.Alpha, r.Seed = d.int(), d.int(), int64(d.u64())
	case KindDelete:
		r.Conds = make([]Cond, d.count(uint64(d.u32()), 16, "condition")) // two strings + value
		for i := range r.Conds {
			r.Conds[i] = Cond{Col: d.str(), Op: d.str(), Val: int64(d.u64())}
		}
	case retiredStrategyKind:
		if d.err == nil {
			d.err = fmt.Errorf("record kind %d is a crack-strategy record, which this build does not replay — boot once with build %s, the last that does, and /save",
				uint8(r.Kind), strategyRecordBuild)
		}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("unknown record kind %d", r.Kind)
		}
	}
	return r
}

// frameRecord wraps an encoded payload in the WAL's on-disk framing:
//
//	len  uint32  payload length
//	...  payload
//	crc  uint32  CRC-32 (IEEE) of the payload
//
// A record is valid iff the full frame is present and the checksum
// matches; anything shorter is a truncated tail. readFrame is the one
// reader of this framing.
func frameRecord(b []byte, r Record) []byte {
	start := len(b)
	b = encodeRecord(binary.LittleEndian.AppendUint32(b, 0), r) // length back-patched below
	payload := b[start+4:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// errTornFrame is readFrame's verdict on a frame cut short or failing its
// checksum: the end of the valid prefix to Open's replay, corruption to
// every other reader.
var errTornFrame = errors.New("torn record frame")

// readFrame appends to dst the next frame read from r, which holds left
// more bytes of the log or batch, exactly as it was written (length and
// checksum included), or returns io.EOF at a clean boundary.
func readFrame(r io.Reader, left int64, dst []byte) ([]byte, error) {
	start := len(dst)
	switch {
	case left == 0:
		return dst, io.EOF
	case left < 8:
		return dst, errTornFrame
	}
	dst = append(dst, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, dst[start:]); err != nil {
		return dst[:start], err
	}
	n := int64(binary.LittleEndian.Uint32(dst[start:]))
	if n > left-8 {
		return dst[:start], errTornFrame
	}
	dst = append(dst, make([]byte, n+4)...)
	if _, err := io.ReadFull(r, dst[start+4:]); err != nil {
		return dst[:start], err
	}
	if binary.LittleEndian.Uint32(dst[len(dst)-4:]) != crc32.ChecksumIEEE(dst[start+4:len(dst)-4]) {
		return dst[:start], errTornFrame
	}
	return dst, nil
}

// DecodeRecords parses the frames WAL.ReadCommitted returns — the
// replication stream's payload — with the frame reader boot uses. A torn
// frame anywhere in the batch is corruption: there is no tail to forgive.
func DecodeRecords(b []byte) ([]Record, error) {
	rd := bytes.NewReader(b)
	var out []Record
	var frame []byte
	for {
		var err error
		if frame, err = readFrame(rd, int64(rd.Len()), frame[:0]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%w: batch record %d: %v", ErrCorrupt, len(out), err)
		}
		rec, err := decodeRecord(frame[4 : len(frame)-4])
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
