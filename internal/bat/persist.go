package bat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Binary persistence for BATs. The on-disk format is:
//
//	magic   [4]byte  "BAT1"
//	type    uint8    0, the int64 tail (the only type)
//	hseq    uint32   head sequence base
//	n       uint64   number of BUNs
//	tail    n × int64
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// The trailing checksum lets Load detect truncated or corrupted stores,
// which the persistence failure-injection tests exercise.

var magic = [4]byte{'B', 'A', 'T', '1'}

const (
	tailInt   = 0       // the type byte of an int64 tail
	ioChunk   = 1 << 20 // bytes WriteTo encodes, and ReadBAT reads, at a time
	headerLen = 4 + 1 + 4 + 8
)

// ErrCorrupt is returned when a persisted BAT fails validation.
var ErrCorrupt = errors.New("bat: corrupt or truncated BAT image")

// WriteTo serializes the BAT. It implements io.WriterTo.
func (b *BAT) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, min(headerLen+8*len(b.ints), ioChunk))
	buf = append(buf, magic[:]...)
	buf = append(buf, tailInt)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.hseq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.ints)))
	var crc uint32
	var written int64
	flush := func() error {
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		n, err := w.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	for _, v := range b.ints {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return written, err
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	if err := flush(); err != nil {
		return written, err
	}
	n, err := w.Write(binary.LittleEndian.AppendUint32(buf, crc))
	return written + int64(n), err
}

// ReadBAT deserializes a BAT written by WriteTo from an input of size
// bytes, validating the checksum. A count the size cannot hold exactly is
// ErrCorrupt before anything is allocated, so the vector, sized once, is
// bounded by the input; the tail is then read ioChunk bytes at a time.
func ReadBAT(name string, r io.Reader, size int64) (*BAT, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var hdr [headerLen]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m := [4]byte(hdr[:4]); m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	if hdr[4] != tailInt {
		return nil, fmt.Errorf("%w: tail type %d is not int", ErrCorrupt, hdr[4])
	}
	b := &BAT{name: name, hseq: OID(binary.LittleEndian.Uint32(hdr[5:]))}
	n := binary.LittleEndian.Uint64(hdr[9:])
	if tail := size - headerLen - 4; tail < 0 || tail%8 != 0 || uint64(tail/8) != n {
		return nil, fmt.Errorf("%w: BUN count %d does not fit %d bytes", ErrCorrupt, n, size)
	}
	b.ints = make([]int64, 0, n)
	chunk := make([]byte, min(8*n, ioChunk))
	for left := 8 * n; left > 0; {
		c := chunk[:min(left, ioChunk)]
		if _, err := io.ReadFull(tr, c); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for i := 0; i < len(c); i += 8 {
			b.ints = append(b.ints, int64(binary.LittleEndian.Uint64(c[i:])))
		}
		left -= uint64(len(c))
	}

	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return b, nil
}

// Save writes the BAT to path atomically (write to temp file, then rename).
func (b *BAT) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = b.WriteTo(f) // writes whole chunks: no buffer in between
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a BAT from path.
func Load(name, path string) (*BAT, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadBAT(name, f, fi.Size()) // reads whole chunks: no buffer in between
}
