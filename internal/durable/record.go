// Package durable is the persistence subsystem: an append-only,
// checksummed insert WAL with group-commit batching and safe
// truncated-tail recovery (wal.go), plus store images that capture each
// column's cut set, cracked vectors and strategy RNG state (image.go: one
// element format, a full image being the base of a delta chain).
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// RecordKind tags one WAL record's operation.
type RecordKind uint8

// The logged operations. Everything that changes what data exists is
// logged; pure reorganization (cracking) is not — it is re-derivable and
// is captured wholesale by snapshots instead.
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
	// KindStrategy is a SetCrackStrategy (Shard = -1) or
	// SetShardCrackStrategy (Shard >= 0).
	KindStrategy
	// KindDelete is one Delete(table, conds...): logged by its predicate,
	// not the OIDs it resolved to — given an identical record prefix the
	// predicate selects identical tuples, so replicas replaying the log
	// (whose physical crack order legitimately differs) converge on the
	// same live set.
	KindDelete
)

func (k RecordKind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindInsert:
		return "insert"
	case KindDrop:
		return "drop"
	case KindTapestry:
		return "tapestry"
	case KindStrategy:
		return "strategy"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
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
//	KindInsert:   Table, Rows (every row has the same arity)
//	KindDrop:     Table
//	KindTapestry: Table, N, Alpha, Seed
//	KindStrategy: Name, Seed, Shard (-1 = every shard)
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
	Name  string
	Shard int
	Conds []Cond
}

// ErrCorrupt is returned when a WAL or snapshot image fails validation
// beyond the recoverable truncated-tail case.
var ErrCorrupt = errors.New("durable: corrupt image")

// appendString appends a length-prefixed UTF-8 string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("%w: short string header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return "", nil, fmt.Errorf("%w: string length %d exceeds payload", ErrCorrupt, n)
	}
	return string(b[:n]), b[n:], nil
}

// encodeRecord serializes one record payload (no framing, no checksum —
// the WAL layer adds those).
func encodeRecord(b []byte, r Record) []byte {
	b = append(b, byte(r.Kind))
	b = appendString(b, r.Table)
	switch r.Kind {
	case KindCreate:
		b = appendString(b, r.Key)
		b = appendString(b, r.Part)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Cols)))
		for _, c := range r.Cols {
			b = appendString(b, c)
		}
	case KindInsert:
		arity := 0
		if len(r.Rows) > 0 {
			arity = len(r.Rows[0])
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Rows)))
		b = binary.LittleEndian.AppendUint32(b, uint32(arity))
		for _, row := range r.Rows {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
	case KindDrop:
		// table name only
	case KindTapestry:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.N))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Alpha))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Seed))
	case KindStrategy:
		b = appendString(b, r.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Seed))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Shard))
	case KindDelete:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Conds)))
		for _, c := range r.Conds {
			b = appendString(b, c.Col)
			b = appendString(b, c.Op)
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Val))
		}
	}
	return b
}

// decodeRecord parses one record payload produced by encodeRecord.
func decodeRecord(b []byte) (Record, error) {
	if len(b) < 1 {
		return Record{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	r := Record{Kind: RecordKind(b[0])}
	b = b[1:]
	var err error
	if r.Table, b, err = readString(b); err != nil {
		return Record{}, err
	}
	switch r.Kind {
	case KindCreate:
		if r.Key, b, err = readString(b); err != nil {
			return Record{}, err
		}
		if r.Part, b, err = readString(b); err != nil {
			return Record{}, err
		}
		if len(b) < 4 {
			return Record{}, fmt.Errorf("%w: short column count", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if n > 1<<20 {
			return Record{}, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, n)
		}
		r.Cols = make([]string, n)
		for i := range r.Cols {
			if r.Cols[i], b, err = readString(b); err != nil {
				return Record{}, err
			}
		}
	case KindInsert:
		if len(b) < 8 {
			return Record{}, fmt.Errorf("%w: short insert header", ErrCorrupt)
		}
		nrows := binary.LittleEndian.Uint32(b)
		arity := binary.LittleEndian.Uint32(b[4:])
		b = b[8:]
		need := uint64(nrows) * uint64(arity) * 8
		if arity > 1<<20 || need != uint64(len(b)) {
			return Record{}, fmt.Errorf("%w: insert body %d bytes, want %d", ErrCorrupt, len(b), need)
		}
		r.Rows = make([][]int64, nrows)
		for i := range r.Rows {
			row := make([]int64, arity)
			for j := range row {
				row[j] = int64(binary.LittleEndian.Uint64(b))
				b = b[8:]
			}
			r.Rows[i] = row
		}
	case KindDrop:
	case KindTapestry:
		if len(b) != 24 {
			return Record{}, fmt.Errorf("%w: tapestry body %d bytes, want 24", ErrCorrupt, len(b))
		}
		r.N = int(int64(binary.LittleEndian.Uint64(b)))
		r.Alpha = int(int64(binary.LittleEndian.Uint64(b[8:])))
		r.Seed = int64(binary.LittleEndian.Uint64(b[16:]))
	case KindStrategy:
		if r.Name, b, err = readString(b); err != nil {
			return Record{}, err
		}
		if len(b) != 16 {
			return Record{}, fmt.Errorf("%w: strategy body %d bytes, want 16", ErrCorrupt, len(b))
		}
		r.Seed = int64(binary.LittleEndian.Uint64(b))
		shard := int64(binary.LittleEndian.Uint64(b[8:]))
		if shard < math.MinInt32 || shard > math.MaxInt32 {
			return Record{}, fmt.Errorf("%w: implausible shard index %d", ErrCorrupt, shard)
		}
		r.Shard = int(shard)
	case KindDelete:
		if len(b) < 4 {
			return Record{}, fmt.Errorf("%w: short delete header", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if n > 1<<20 {
			return Record{}, fmt.Errorf("%w: implausible condition count %d", ErrCorrupt, n)
		}
		r.Conds = make([]Cond, n)
		for i := range r.Conds {
			if r.Conds[i].Col, b, err = readString(b); err != nil {
				return Record{}, err
			}
			if r.Conds[i].Op, b, err = readString(b); err != nil {
				return Record{}, err
			}
			if len(b) < 8 {
				return Record{}, fmt.Errorf("%w: short delete condition", ErrCorrupt)
			}
			r.Conds[i].Val = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		if len(b) != 0 {
			return Record{}, fmt.Errorf("%w: %d trailing bytes after delete record", ErrCorrupt, len(b))
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, r.Kind)
	}
	return r, nil
}

// frameRecord wraps an encoded payload in the WAL's on-disk framing:
//
//	len  uint32  payload length
//	...  payload
//	crc  uint32  CRC-32 (IEEE) of the payload
//
// A record is valid iff the full frame is present and the checksum
// matches; anything shorter is a truncated tail.
func frameRecord(b []byte, r Record) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0) // length back-patched below
	payloadStart := len(b)
	b = encodeRecord(b, r)
	payload := b[payloadStart:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// EncodeRecords serializes a record batch in the WAL's checksummed frame
// format — the replication stream's payload encoding, so a follower
// validates shipped records with exactly the machinery boot-time replay
// uses.
func EncodeRecords(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = frameRecord(b, r)
	}
	return b
}

// DecodeRecords parses a batch produced by EncodeRecords. Unlike the
// WAL scan there is no torn tail to tolerate: anything short, trailing,
// or checksum-mismatched is corruption.
func DecodeRecords(b []byte) ([]Record, error) {
	var out []Record
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: short record frame header", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(b)
		if uint64(n)+8 > uint64(len(b)) {
			return nil, fmt.Errorf("%w: record frame of %d bytes exceeds batch", ErrCorrupt, n)
		}
		payload := b[4 : 4+n]
		sum := binary.LittleEndian.Uint32(b[4+n:])
		if sum != crc32.ChecksumIEEE(payload) {
			return nil, fmt.Errorf("%w: record frame checksum mismatch", ErrCorrupt)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		b = b[8+n:]
	}
	return out, nil
}
