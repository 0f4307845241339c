package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"crackdb/internal/bat"
	"crackdb/internal/core"
)

// Store images. One element type persists a store, in one file: an Image
// carries what changed since a named predecessor — the rows appended to
// each table, and for every column that moved either its whole crack
// state (core.ColumnState) or a patch of the granules it wrote
// (core.Granule) — and a full image is simply the element with nothing
// before it: Base set, every table rewritten, every cracked column
// whole. The paper counts cost in granules, "tuples or disk pages"
// (§2.2); so does a checkpoint. Each fact is stored once: a cracked
// column carries its OID permutation and cut keys, and the values, cut
// positions and payload vectors they imply are derived from the rows on
// restore (core.CrackedTable.ColumnFromState).
//
// File layout (version 10):
//
//	magic    [4]byte "CRKS"
//	version  uint8   10
//	base     bool    chain start: nothing precedes this element
//	prevSum  uint32  the predecessor's trailer checksum (ignored when
//	                 base; 0 is a valid CRC, so base is its own marker)
//	ntables  uint32  authoritative table manifest (see ImageTable)
//	tables   ntables × (name, cols, rows, tombstones, from, then
//	         Rows-From values per column when From < Rows)
//	ncols    uint32  column records, changed columns only: table, attr,
//	columns          name, sorted, nextOID, n, patch, then
//	                   whole: n OIDs, cut keys
//	                   patch: k granule indexes, the m OIDs they hold,
//	                          newCuts, cut keys if newCuts
//	                 then pending insert OIDs, deletes, strategy, and the
//	                 payload attribute names, least recently used first
//	crc      uint32  CRC-32 (IEEE) of everything above
//
// The table manifest is complete, not differential: a table absent from
// it was dropped, a table with rows from From on carries those rows, and
// the rest of it must already exist earlier in the chain. The trailing
// checksum makes a torn or bit-flipped image fail as a whole
// (ErrCorrupt); whoever opens the chain refuses to boot on it rather than
// serve half a cut set.
//
// Only version 10 is read: any other version is refused by version,
// never as corruption. A store image is this build's own format, and the
// cracker state it carries is re-derivable from the rows (the paper's
// prototype keeps none of it between sessions, §5.2). No process posture
// is imaged: the strategy a store cracks new columns under, its piece
// bound, its sideways budget and its tuner — window counters, classes,
// flip counts, operator pins — belong to the process that opens it,
// which sets them after every open. A column record's strategy is the
// column's own: it is what the column resumes under.

var imageMagic = [4]byte{'C', 'R', 'K', 'S'}

// imageVersion is the one version WriteImage writes and ReadImage reads.
const imageVersion = 10

// SnapshotCRC is the polynomial that identifies a whole image file:
// Castagnoli, deliberately not IEEE. An image ends in its own IEEE
// CRC-32, and the IEEE CRC of such a file is the same constant residue
// whatever it holds — as a file identity it would let a follower keep a
// stale same-sized file.
var SnapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// ImageFile is what WriteImage reports of the file it wrote, so nothing
// has to read the file back to name it.
type ImageFile struct {
	Sum  uint32 // trailer checksum: what the next element records as PrevSum
	Size int64
	CRC  uint32 // SnapshotCRC of the whole file
}

// ColumnSnapshot binds one column's exported state to its table and
// attribute.
type ColumnSnapshot struct {
	Table string
	Attr  string
	State core.ColumnState
}

// ImageTable is one entry of an image's authoritative table manifest.
type ImageTable struct {
	Name string
	Cols []string
	Rows int // physical base cardinality, tombstoned rows included

	// Deleted is the complete tombstone set at save time (cheap: deletes
	// are rare and the set is bounded by consolidation).
	Deleted []bat.OID

	// From is the first row the element carries: 0 rewrites the table (it
	// is new or recreated, or the element is a base), Rows carries none,
	// and anything between appends the rows [From, Rows) to the table the
	// chain built so far.
	From int

	// Vals holds the rows [From, Rows), one vector per column of Cols;
	// nil when From == Rows.
	Vals [][]int64
}

// Image is one element of a checkpoint chain.
type Image struct {
	Base    bool   // chain start; PrevSum is meaningless
	PrevSum uint32 // trailer checksum of the element this one follows
	Tables  []ImageTable
	Columns []ColumnSnapshot // columns whose crack state changed, whole or patched
}

// WriteImage serializes the image to path, fsyncs it, and describes the
// file it wrote. Its Sum is the CRC-32 trailer value — what the next
// chain element records as its PrevSum. The trailer, not a CRC of the
// whole file: a CRC over a message that ends in its own CRC is the fixed
// CRC-32 residue, the same for every file. A failed write removes the
// file.
func WriteImage(path string, img *Image) (ImageFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return ImageFile{}, err
	}
	e := &imageEncoder{f: f, buf: make([]byte, 0, encodeChunk+16)}
	e.image(img)
	out := ImageFile{Sum: e.finish(), Size: e.size, CRC: e.fileCRC}
	if e.err == nil {
		e.err = f.Sync()
	}
	if err := f.Close(); e.err == nil {
		e.err = err
	}
	if e.err != nil {
		os.Remove(path)
		return ImageFile{}, e.err
	}
	return out, nil
}

// encodeChunk bounds the encoder's buffer: the rows and OID vectors
// dominate an image, and one giant buffer per column would double peak memory.
const encodeChunk = 1 << 16

// imageEncoder appends fields to a bounded buffer, folding each flushed
// chunk into the running checksums and size. Errors are sticky.
type imageEncoder struct {
	f       *os.File
	crc     uint32 // IEEE over the body: the trailer
	fileCRC uint32 // SnapshotCRC over every byte written
	size    int64
	buf     []byte
	err     error
}

func (e *imageEncoder) flush() {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
		e.fileCRC = crc32.Update(e.fileCRC, SnapshotCRC, e.buf)
		e.size += int64(len(e.buf))
		_, e.err = e.f.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// finish flushes the body and appends its checksum.
func (e *imageEncoder) finish() uint32 {
	e.flush()
	sum := e.crc
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	e.flush()
	return sum
}

// room flushes a full buffer to the file. An encoder without a file —
// one encoding a WAL record — only appends.
func (e *imageEncoder) room() {
	if e.f != nil && len(e.buf) >= encodeChunk {
		e.flush()
	}
}

func (e *imageEncoder) u8(v uint8) { e.room(); e.buf = append(e.buf, v) }

func (e *imageEncoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *imageEncoder) u32(v uint32) { e.room(); e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *imageEncoder) u64(v uint64) { e.room(); e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *imageEncoder) str(s string) { e.u32(uint32(len(s))); e.buf = append(e.buf, s...) }

func (e *imageEncoder) int64s(vals []int64) {
	for _, v := range vals {
		e.u64(uint64(v))
	}
}

func (e *imageEncoder) oids(oids []bat.OID) {
	for _, o := range oids {
		e.u32(uint32(o))
	}
}

// cuts writes a cut set's keys: a restore counts each position from the
// values.
func (e *imageEncoder) cuts(cuts []core.Cut) {
	e.u64(uint64(len(cuts)))
	for _, c := range cuts {
		e.u64(uint64(c.Val))
		e.bool(c.Incl)
	}
}

func (e *imageEncoder) strategy(st *core.CrackStrategy) {
	e.bool(st != nil)
	if st != nil {
		e.str(st.Name)
		e.u64(uint64(st.MinPiece))
		e.u64(st.RNG)
	}
}

func (e *imageEncoder) image(img *Image) {
	e.buf = append(e.buf, imageMagic[:]...)
	e.u8(imageVersion)
	e.bool(img.Base)
	e.u32(img.PrevSum)
	e.u32(uint32(len(img.Tables)))
	for _, t := range img.Tables {
		e.str(t.Name)
		e.u32(uint32(len(t.Cols)))
		for _, c := range t.Cols {
			e.str(c)
		}
		e.u64(uint64(t.Rows))
		e.u64(uint64(len(t.Deleted)))
		e.oids(t.Deleted)
		e.u64(uint64(t.From))
		for _, v := range t.Vals {
			e.int64s(v)
		}
	}
	e.u32(uint32(len(img.Columns)))
	for i := range img.Columns {
		e.column(&img.Columns[i])
	}
}

func (e *imageEncoder) column(cs *ColumnSnapshot) {
	st := &cs.State
	e.str(cs.Table)
	e.str(cs.Attr)
	e.str(st.Name)
	e.bool(st.Sorted)
	e.u64(uint64(st.NextOID))
	if st.Patch {
		e.u64(uint64(st.Len))
		e.bool(true)
		e.u64(uint64(len(st.Granules)))
		for _, g := range st.Granules {
			e.u32(uint32(g))
		}
	} else {
		e.u64(uint64(len(st.OIDs)))
		e.bool(false)
	}
	e.oids(st.OIDs)
	if st.Patch {
		e.bool(st.NewCuts)
	}
	if !st.Patch || st.NewCuts {
		e.cuts(st.Cuts)
	}
	e.u64(uint64(len(st.Pending)))
	e.oids(st.Pending)
	e.u64(uint64(len(st.Deleted)))
	e.oids(st.Deleted)
	e.strategy(st.Strategy)
	e.u32(uint32(len(st.Pays)))
	for _, attr := range st.Pays {
		e.str(attr)
	}
}

// ReadImage loads and validates an image written by WriteImage, returning
// the decoded element and its verified checksum (the CRC-32 trailer value
// the next chain element must carry as PrevSum).
func ReadImage(path string) (*Image, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	crc := crc32.NewIEEE()
	// limit caps every length-prefixed allocation by what the file could
	// possibly hold: a bit-flipped count field must fail cleanly as
	// corruption, not abort the process allocating petabytes before the
	// trailing checksum would have exposed it.
	r := &imageDecoder{r: io.TeeReader(br, crc), limit: fi.Size()}

	if magic := r.next(4); r.err != nil || [4]byte(magic) != imageMagic {
		return nil, 0, fmt.Errorf("%w: bad image magic", ErrCorrupt)
	}
	if version := r.u8(); r.err == nil && version != imageVersion {
		return nil, 0, fmt.Errorf("durable: unsupported image version %d (this build reads version %d)",
			version, imageVersion)
	}
	img := r.image()
	if r.err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	// The checksum trails the teed content: read it from the underlying
	// reader so it does not feed back into the running CRC.
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: missing image checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, 0, fmt.Errorf("%w: image checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return img, want, nil
}

// imageDecoder is a little decoding cursor with sticky error handling,
// the one decoder of both an image file and a WAL record payload. A
// vector is read with one read of its whole byte length, which count has
// already bounded by the input's size, and decoded from that buffer.
type imageDecoder struct {
	r     io.Reader
	err   error
	limit int64  // input size: upper bound for any length field
	buf   []byte // scratch behind next, reused by every read
}

// count reads nothing: it validates a length field just read — n entries
// of at least entrySize bytes each must fit in the input, or the field is
// corrupt. It returns n, or 0 once the decoder has failed.
func (d *imageDecoder) count(n uint64, entrySize int64, what string) uint64 {
	if d.err == nil && n > uint64(d.limit)/uint64(entrySize) {
		d.err = fmt.Errorf("%s count %d exceeds input capacity", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// next reads the following n bytes. The returned slice is the decoder's
// scratch buffer, valid until the next read; after a failure its contents
// are meaningless, and so is everything decoded from them.
func (d *imageDecoder) next(n int) []byte {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
	return b
}

func (d *imageDecoder) u8() uint8   { return d.next(1)[0] }
func (d *imageDecoder) bool() bool  { return d.u8() != 0 }
func (d *imageDecoder) u32() uint32 { return binary.LittleEndian.Uint32(d.next(4)) }
func (d *imageDecoder) u64() uint64 { return binary.LittleEndian.Uint64(d.next(8)) }
func (d *imageDecoder) int() int    { return int(int64(d.u64())) }

func (d *imageDecoder) str() string {
	n := d.count(uint64(d.u32()), 1, "string byte")
	if n > MaxName {
		d.err = fmt.Errorf("string of %d bytes exceeds %d", n, MaxName)
		return ""
	}
	return string(d.next(int(n)))
}

func (d *imageDecoder) int64s(n uint64) []int64 {
	b := d.next(8 * int(n))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (d *imageDecoder) oids(n uint64) []bat.OID {
	b := d.next(4 * int(n))
	out := make([]bat.OID, n)
	for i := range out {
		out[i] = bat.OID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// cuts reads a cut set. Cut counts are not bounded by cardinality:
// distinct cut values may share a position (tiny pieces under many
// predicates), so they are bounded by file capacity only —
// core.CrackedTable.ColumnFromState places them and enforces the real
// invariants.
func (d *imageDecoder) cuts() []core.Cut {
	const size = 9 // 8 val + 1 incl
	n := d.count(d.u64(), size, "cut")
	b := d.next(size * int(n))
	out := make([]core.Cut, n)
	for i := range out {
		c := b[size*i:]
		out[i] = core.Cut{Val: int64(binary.LittleEndian.Uint64(c)), Incl: c[8] != 0}
	}
	return out
}

// granules reads a patch's granule list for a column of n tuples and
// returns how many positions the listed granules cover. Every index must
// lie inside the column and follow the one before it, and the list and
// the positions it names are bounded by the file size before anything is
// allocated. A column holds at most 2^32 tuples: OIDs are 32 bits.
func (d *imageDecoder) granules(st *core.ColumnState, n uint64) uint64 {
	if d.err == nil && n > math.MaxUint32 {
		d.err = fmt.Errorf("patch of a %d-tuple column", n)
	}
	k := d.count(d.u64(), 4, "granule")
	b := d.next(4 * int(k))
	st.Len, st.Granules = int(n), make([]int, k)
	limit := (n + core.Granule - 1) / core.Granule
	var m uint64
	for i := range st.Granules {
		g := uint64(binary.LittleEndian.Uint32(b[4*i:]))
		if d.err == nil && (g >= limit || i > 0 && int(g) <= st.Granules[i-1]) {
			d.err = fmt.Errorf("granule %d out of order or past a %d-tuple column", g, n)
		}
		st.Granules[i] = int(g)
		m += min(n, (g+1)*core.Granule) - g*core.Granule
	}
	return d.count(m, 4, "patch cardinality")
}

func (d *imageDecoder) strategy() *core.CrackStrategy {
	if !d.bool() {
		return nil
	}
	return &core.CrackStrategy{Name: d.str(), MinPiece: d.int(), RNG: d.u64()}
}

func (d *imageDecoder) image() *Image {
	img := &Image{Base: d.bool(), PrevSum: d.u32()}
	// name + cols + rows + ndel + from minimum per table entry
	for n := d.count(uint64(d.u32()), 21, "table"); n > 0 && d.err == nil; n-- {
		t := ImageTable{Name: d.str()}
		for nc := d.count(uint64(d.u32()), 4, "table column"); nc > 0 && d.err == nil; nc-- {
			t.Cols = append(t.Cols, d.str())
		}
		t.Rows = d.int()
		t.Deleted = d.oids(d.count(d.u64(), 4, "tombstone"))
		t.From = d.int()
		if d.err == nil && (t.Rows < 0 || t.From < 0 || t.From > t.Rows) {
			d.err = fmt.Errorf("table %q rows [%d, %d) out of order", t.Name, t.From, t.Rows)
		}
		if d.err == nil && t.From < t.Rows {
			n := d.count(uint64(t.Rows-t.From), 8*int64(max(1, len(t.Cols))), "row")
			t.Vals = make([][]int64, len(t.Cols))
			for i := range t.Vals {
				t.Vals[i] = d.int64s(n)
			}
		}
		img.Tables = append(img.Tables, t)
	}
	// conservative minimum per column record
	for n := d.count(uint64(d.u32()), 16, "column"); n > 0 && d.err == nil; n-- {
		img.Columns = append(img.Columns, d.column())
	}
	return img
}

func (d *imageDecoder) column() ColumnSnapshot {
	cs := ColumnSnapshot{Table: d.str(), Attr: d.str()}
	st := &cs.State
	st.Name = d.str()
	st.Sorted = d.bool()
	st.NextOID = bat.OID(d.u64())
	n := d.u64()
	if st.Patch = d.bool(); st.Patch {
		n = d.granules(st, n)
	} else {
		n = d.count(n, 4, "column cardinality")
	}
	st.OIDs = d.oids(n)
	if st.Patch {
		st.NewCuts = d.bool()
	}
	if !st.Patch || st.NewCuts {
		st.Cuts = d.cuts()
	}
	st.Pending = d.oids(d.count(d.u64(), 4, "pending"))
	st.Deleted = d.oids(d.count(d.u64(), 4, "deleted"))
	st.Strategy = d.strategy()
	for k := d.count(uint64(d.u32()), 4, "payload"); k > 0 && d.err == nil; k-- {
		st.Pays = append(st.Pays, d.str())
	}
	return cs
}
