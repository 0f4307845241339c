package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The legacy row reader. Images up to version 6 kept a table's rows out
// of the image, in one BAT file per column beside it:
//
//	<table>.<col>.bat
//	magic   [4]byte  "BAT1"
//	type    uint8    0, the int64 tail (the only type)
//	hseq    uint32   head sequence base: the first row the file holds
//	n       uint64   number of values
//	tail    n × int64
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// Nothing writes this format any more; a data dir that still holds it is
// upgraded on its first boot (internal/shard's upgradeLegacy), and this
// file goes once no such data dir needs reading.

var batMagic = [4]byte{'B', 'A', 'T', '1'}

const (
	batChunk  = 1 << 20 // bytes readBAT reads at a time
	batHeader = 4 + 1 + 4 + 8
)

// loadBATs fills a version-4 to -6 image's table entries with the rows
// [From, Rows) their BAT files in dir hold.
func loadBATs(dir string, img *Image) error {
	for i := range img.Tables {
		t := &img.Tables[i]
		if t.From == t.Rows {
			continue
		}
		t.Vals = make([][]int64, len(t.Cols))
		for j, col := range t.Cols {
			hseq, vals, err := loadBAT(filepath.Join(dir, t.Name+"."+col+".bat"))
			if err != nil {
				return fmt.Errorf("durable: load %s.%s: %w", t.Name, col, err)
			}
			if int(hseq) != t.From || len(vals) != t.Rows-t.From {
				return fmt.Errorf("durable: %s.%s holds rows [%d, %d), image manifest says [%d, %d)",
					t.Name, col, hseq, int(hseq)+len(vals), t.From, t.Rows)
			}
			t.Vals[j] = vals
		}
	}
	return nil
}

func loadBAT(path string) (uint32, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	return readBAT(f, fi.Size())
}

// readBAT decodes a BAT file of size bytes, validating the checksum. A
// count the size cannot hold exactly is ErrCorrupt before anything is
// allocated, so the vector, sized once, is bounded by the input; the tail
// is then read batChunk bytes at a time.
func readBAT(r io.Reader, size int64) (uint32, []int64, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var hdr [batHeader]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m := [4]byte(hdr[:4]); m != batMagic {
		return 0, nil, fmt.Errorf("%w: bad BAT magic %q", ErrCorrupt, m)
	}
	if hdr[4] != 0 {
		return 0, nil, fmt.Errorf("%w: BAT tail type %d is not int", ErrCorrupt, hdr[4])
	}
	hseq := binary.LittleEndian.Uint32(hdr[5:])
	n := binary.LittleEndian.Uint64(hdr[9:])
	if tail := size - batHeader - 4; tail < 0 || tail%8 != 0 || uint64(tail/8) != n {
		return 0, nil, fmt.Errorf("%w: BUN count %d does not fit %d bytes", ErrCorrupt, n, size)
	}
	vals := make([]int64, 0, n)
	chunk := make([]byte, min(8*n, batChunk))
	for left := 8 * n; left > 0; {
		c := chunk[:min(left, batChunk)]
		if _, err := io.ReadFull(tr, c); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for i := 0; i < len(c); i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(c[i:])))
		}
		left -= uint64(len(c))
	}

	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: missing BAT checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return 0, nil, fmt.Errorf("%w: BAT checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return hseq, vals, nil
}
