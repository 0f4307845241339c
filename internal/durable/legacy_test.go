package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// batBytes encodes a BAT file the way builds before image version 7
// wrote one.
func batBytes(hseq uint32, vals []int64) []byte {
	b := append([]byte{}, batMagic[:]...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, hseq)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzBATDecode feeds arbitrary bytes to readBAT, the decoder a legacy
// boot reads every BAT file through: no panic, and allocation bounded by
// the input rather than by a corrupt count field. The seed corpus under
// testdata/fuzz covers a valid BAT, a truncation, a bit flip and a huge
// count; CI runs the target for 30 seconds (fuzz-smoke job).
func FuzzBATDecode(f *testing.F) {
	f.Add(batBytes(0, []int64{-5, 0, 7, 1 << 40, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, vals, err := readBAT(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&m1)
		// The vector and the read chunk, each no larger than the input,
		// plus slack for what the fuzzing engine allocates meanwhile: a
		// corrupt count would ask for gigabytes.
		if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(2*len(data)+1<<16); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if err == nil && 8*len(vals)+batHeader+4 != len(data) {
			t.Fatalf("%d values decoded from %d bytes", len(vals), len(data))
		}
	})
}

// TestPersistRoundTripInt: the decoder reads back what the old writer's
// format holds, head sequence base included.
func TestPersistRoundTripInt(t *testing.T) {
	want := []int64{-5, 0, 7, 1 << 40}
	data := batBytes(7, want)
	hseq, got, err := readBAT(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if hseq != 7 {
		t.Fatalf("hseq = %d, want 7", hseq)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPersistDetectsTruncation(t *testing.T) {
	full := batBytes(0, []int64{1, 2, 3, 4, 5})
	for _, cut := range []int{1, 4, len(full) / 2, len(full) - 1} {
		if _, _, err := readBAT(bytes.NewReader(full[:cut]), int64(cut)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: want ErrCorrupt, got %v", cut, err)
		}
		// An input shorter than its stated size ends the read early.
		if _, _, err := readBAT(bytes.NewReader(full[:cut]), int64(len(full))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short read at %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

func TestPersistDetectsCorruption(t *testing.T) {
	data := batBytes(0, []int64{9, 8, 7})
	data[len(data)/2] ^= 0xff
	if _, _, err := readBAT(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: want ErrCorrupt, got %v", err)
	}
}

// A count field flipped to 2^38 must fail as corruption because the input
// cannot hold it, not size an allocation of 2 TiB that kills the process.
func TestReadBATHugeCountIsCorrupt(t *testing.T) {
	data := batBytes(0, []int64{1, 2, 3})
	binary.LittleEndian.PutUint64(data[9:17], 1<<38)
	if _, _, err := readBAT(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^38 over 3 values: want ErrCorrupt, got %v", err)
	}
	// A legacy boot loads from a file, through the same decoder sized by
	// the file.
	path := filepath.Join(t.TempDir(), "x.bat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBAT(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("loadBAT of count 2^38 over 3 values: want ErrCorrupt, got %v", err)
	}
}

// A BAT is an int64 vector: any other tail type byte is corruption.
func TestReadBATRefusesOtherTailTypes(t *testing.T) {
	data := batBytes(0, []int64{1})
	data[4] = 1 // what a string tail used to write
	if _, _, err := readBAT(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tail type 1: want ErrCorrupt, got %v", err)
	}
}

// Property: the decoder reads back any vector and head sequence base the
// old writer's format holds.
func TestQuickPersistRoundTrip(t *testing.T) {
	f := func(hseq uint32, vals []int64) bool {
		data := batBytes(hseq, vals)
		gotSeq, got, err := readBAT(bytes.NewReader(data), int64(len(data)))
		return err == nil && gotSeq == hseq && slices.Equal(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
