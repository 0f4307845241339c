package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"crackdb/internal/bat"
	"crackdb/internal/core"
)

func sampleColumn(table, attr string, n int) ColumnSnapshot {
	st := core.ColumnState{
		Name:    attr,
		NextOID: bat.OID(n + 3),
		Cuts: []core.Cut{
			{Val: 10},
			{Val: 41},
		},
		Pending: []bat.OID{bat.OID(n)},
		Deleted: []bat.OID{1},
		Strategy: &core.CrackStrategy{
			Name: "mdd1r", MinPiece: 128, RNG: 0xdeadbeefcafe,
		},
		Pays: []string{"w", "x"},
	}
	for i := 0; i < n; i++ {
		st.OIDs = append(st.OIDs, bat.OID(n-1-i))
	}
	return ColumnSnapshot{Table: table, Attr: attr, State: st}
}

// samplePatch is a patch record of a 598-tuple column of a 600-row
// table: its short last granule, with a new cut set, the two rows it
// queues and a payload.
func samplePatch(table, attr string) ColumnSnapshot {
	st := core.ColumnState{
		Name: attr, NextOID: 600, Patch: true, Len: 598, Granules: []int{1}, NewCuts: true,
		Cuts:    []core.Cut{{Val: 600}},
		Pending: []bat.OID{599, 598},
		Deleted: []bat.OID{},
		Pays:    []string{"v"},
	}
	for i := core.Granule; i < 598; i++ {
		st.OIDs = append(st.OIDs, bat.OID(i))
	}
	return ColumnSnapshot{Table: table, Attr: attr, State: st}
}

// sampleDelta is a non-base element: one table with rows appended and a
// column patched, one with a whole column record.
func sampleDelta() *Image {
	return &Image{
		PrevSum: 0x1234abcd,
		Tables: []ImageTable{
			{Name: "cold", Cols: []string{"k", "v"}, Rows: 600, Deleted: []bat.OID{}, From: 550, Vals: sampleRows(550, 600)},
			{Name: "hot", Cols: []string{"k", "v"}, Rows: 9, Deleted: []bat.OID{2, 5}, Vals: sampleRows(0, 9)},
		},
		Columns: []ColumnSnapshot{samplePatch("cold", "k"), sampleColumn("hot", "k", 9)},
	}
}

// sampleRows is a two-column table's rows [from, to).
func sampleRows(from, to int) [][]int64 {
	vals := [][]int64{{}, {}}
	for i := from; i < to; i++ {
		vals[0] = append(vals[0], int64(i*13%1000))
		vals[1] = append(vals[1], -int64(i))
	}
	return vals
}

// sampleBase is a full image: the element with nothing before it.
func sampleBase() *Image {
	img := sampleDelta()
	img.Base, img.PrevSum = true, 0
	img.Tables[0].From, img.Tables[0].Vals = 0, sampleRows(0, 600)
	img.Columns[0] = sampleColumn("cold", "v", 60)
	img.Columns[0].State.Pays = nil
	return img
}

// TestImageRoundTrip: every field of an element survives the disk, base
// or delta, the write-side checksum is the one the reader verifies, and
// the size and CRC-32C WriteImage reports are the file's.
func TestImageRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *Image
	}{
		{"base", sampleBase()},
		{"delta", sampleDelta()},
		// The image of an empty store: an empty manifest and nothing else.
		{"empty base", &Image{Base: true}},
		{"crack-only delta", &Image{
			PrevSum: 0, // 0 is a valid CRC: a delta all the same
			Tables:  []ImageTable{{Name: "hot", Cols: []string{"k"}, Rows: 9, Deleted: []bat.OID{}, From: 9}},
			Columns: []ColumnSnapshot{sampleColumn("hot", "k", 9)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "img.crk")
			file, err := WriteImage(path, tc.img)
			if err != nil {
				t.Fatal(err)
			}
			got, rsum, err := ReadImage(path)
			if err != nil {
				t.Fatal(err)
			}
			if file.Sum != rsum {
				t.Fatalf("write sum %08x, read sum %08x", file.Sum, rsum)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if file.Size != int64(len(data)) || file.CRC != crc32.Checksum(data, SnapshotCRC) {
				t.Fatalf("WriteImage reported %d bytes, crc %08x; the file has %d, crc %08x",
					file.Size, file.CRC, len(data), crc32.Checksum(data, SnapshotCRC))
			}
			if !reflect.DeepEqual(tc.img, got) {
				t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", tc.img, got)
			}
		})
	}
}

// rawPatchImage encodes a delta whose one column record is a patch of an
// n-tuple column that lists k granules, gs the first of them: the reader
// must refuse a bad list before it reads (or allocates for) anything the
// list implies.
func rawPatchImage(t testing.TB, n, k uint64, gs []uint32) []byte {
	t.Helper()
	var out bytes.Buffer
	e := &imageEncoder{w: &out}
	e.buf = append(e.buf, imageMagic[:]...)
	e.u8(imageVersion)
	e.bool(false) // base
	e.u32(0)      // prevSum
	e.u32(0)      // tables
	e.u32(1)      // one column record
	for _, s := range []string{"t", "k", "t.k"} {
		e.str(s)
	}
	e.u64(n) // next OID
	e.u64(n)
	e.bool(true) // patch
	e.u64(k)
	for _, g := range gs {
		e.u32(g)
	}
	e.finish()
	if e.err != nil {
		t.Fatal("writing the fixture failed")
	}
	return out.Bytes()
}

// TestPatchGranulesBounded: a patch whose granule list points past its
// column, runs backwards, claims more entries than the file could hold, or
// patches a column longer than 32-bit OIDs can number is corruption.
func TestPatchGranulesBounded(t *testing.T) {
	for name, data := range map[string][]byte{
		"past the length": rawPatchImage(t, 100, 1, []uint32{1}),
		"out of order":    rawPatchImage(t, 2000, 2, []uint32{2, 1}),
		"count past file": rawPatchImage(t, 1<<30, 1<<40, nil),
		"column too long": rawPatchImage(t, 1<<33, 1, []uint32{0}),
	} {
		path := filepath.Join(t.TempDir(), "img.crk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadImage(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// rawRowsImage encodes an element whose one table, of column k, claims
// the rows [from, rows) and carries vals for them, and ends there.
func rawRowsImage(t testing.TB, rows, from uint64, vals []int64) []byte {
	t.Helper()
	var out bytes.Buffer
	e := &imageEncoder{w: &out}
	e.buf = append(e.buf, imageMagic[:]...)
	e.u8(imageVersion)
	e.bool(true) // base
	e.u32(0)     // prevSum
	e.u32(1)     // one table
	e.str("t")
	e.u32(1)
	e.str("k")
	e.u64(rows)
	e.u64(0) // tombstones
	e.u64(from)
	e.int64s(vals)
	e.finish()
	if e.err != nil {
		t.Fatal("writing the fixture failed")
	}
	return out.Bytes()
}

// TestImageRowsBounded: a table whose row section claims more values
// than the file holds, ends early, or starts past its own end is
// corruption, refused before the rows are allocated.
func TestImageRowsBounded(t *testing.T) {
	for name, data := range map[string][]byte{
		"count past file": rawRowsImage(t, 1<<40, 0, nil),
		"truncated rows":  rawRowsImage(t, 10, 0, make([]int64, 9)),
		"from past rows":  rawRowsImage(t, 5, 6, nil),
	} {
		path := filepath.Join(t.TempDir(), "img.crk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadImage(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// rowsImage writes a delta whose one table, of column k, appends vals
// as its rows [from, from+len(vals)), and returns the file's path.
func rowsImage(t testing.TB, from int, vals []int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.crk")
	img := &Image{Tables: []ImageTable{{Name: "t", Cols: []string{"k"}, Rows: from + len(vals), Deleted: []bat.OID{}, From: from}}}
	if len(vals) > 0 {
		img.Tables[0].Vals = [][]int64{vals}
	}
	if _, err := WriteImage(path, img); err != nil {
		t.Fatal(err)
	}
	return path
}

// readRows reads rowsImage's table back: its first row and its values.
func readRows(path string) (int, []int64, error) {
	img, _, err := ReadImage(path)
	if err != nil {
		return 0, nil, err
	}
	if len(img.Tables) != 1 {
		return 0, nil, fmt.Errorf("%d tables", len(img.Tables))
	}
	t := img.Tables[0]
	if t.Vals == nil {
		return t.From, nil, nil
	}
	return t.From, t.Vals[0], nil
}

// TestPersistRoundTripInt: a table's appended rows read back value for
// value, the first row they start at included.
func TestPersistRoundTripInt(t *testing.T) {
	want := []int64{-5, 0, 7, 1 << 40}
	from, got, err := readRows(rowsImage(t, 7, want))
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 || !slices.Equal(got, want) {
		t.Fatalf("read rows %v from %d, want %v from 7", got, from, want)
	}
}

// TestPersistDetectsTruncation: an image cut anywhere — in its header,
// inside the row vector, or just short of its trailer — is corruption.
func TestPersistDetectsTruncation(t *testing.T) {
	full, err := os.ReadFile(rowsImage(t, 0, []int64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.crk")
	for cut := 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readRows(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d of %d: want ErrCorrupt, got %v", cut, len(full), err)
		}
	}
}

// TestPersistDetectsCorruption: a flipped byte inside the row vector is
// corruption, never a different value.
func TestPersistDetectsCorruption(t *testing.T) {
	vals := []int64{9, 8, 7}
	path := rowsImage(t, 0, vals)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The rows end where the column count and the trailer begin.
	end := len(data) - (4 + 4)
	data[end-8*len(vals)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRows(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip in the rows: want ErrCorrupt, got %v", err)
	}
}

// Property: any row vector, starting at any row, reads back as written.
func TestQuickPersistRoundTrip(t *testing.T) {
	f := func(from uint16, vals []int64) bool {
		gotFrom, got, err := readRows(rowsImage(t, int(from), vals))
		return err == nil && gotFrom == int(from) && slices.Equal(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSumIdentifiesContent: the returned checksum must change with
// the content — it is the chain-link identity, so a constant would let
// any element link to any chain. Base and delta alike.
func TestDeltaSumIdentifiesContent(t *testing.T) {
	dir := t.TempDir()
	for _, img := range []*Image{sampleDelta(), sampleBase()} {
		s1, err := WriteImage(filepath.Join(dir, "a.crk"), img)
		if err != nil {
			t.Fatal(err)
		}
		img.Tables[1].Vals[1][0]++ // one row value
		s2, err := WriteImage(filepath.Join(dir, "b.crk"), img)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Sum == s2.Sum {
			t.Fatalf("different content, same checksum %08x", s1.Sum)
		}
	}
	// The base marker itself is content: the same element as base and as
	// delta must not share an identity.
	img := sampleDelta()
	s1, err := WriteImage(filepath.Join(dir, "c.crk"), img)
	if err != nil {
		t.Fatal(err)
	}
	img.Base = true
	s2, err := WriteImage(filepath.Join(dir, "d.crk"), img)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Sum == s2.Sum {
		t.Fatalf("base and delta share checksum %08x", s1)
	}
}

// TestImageCorruptionRefused: any flipped byte or truncation must fail,
// never decode to a different element — for base and delta elements.
func TestImageCorruptionRefused(t *testing.T) {
	for name, img := range map[string]*Image{"base": sampleBase(), "delta": sampleDelta()} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "img.crk")
			if _, err := WriteImage(path, img); err != nil {
				t.Fatal(err)
			}
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(t.TempDir(), "bad.crk")
			for _, off := range []int{0, 5, len(orig) / 2, len(orig) - 2, len(orig) - 1} {
				data := append([]byte(nil), orig...)
				data[off] ^= 0x20
				if err := os.WriteFile(bad, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := ReadImage(bad); err == nil {
					t.Fatalf("flipped byte at %d decoded without error", off)
				}
			}
			if err := os.WriteFile(bad, orig[:len(orig)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadImage(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated image: want ErrCorrupt, got %v", err)
			}
		})
	}
}

// TestOldImageVersionRefused: an image of any version but 12 — the CRKS
// versions 1 to 3 from before the single format, versions 4 to 6 whose
// rows lay in BAT files beside the image, version 7 whose column records
// repeated the rows' values, payloads and cut positions, version 8 whose
// elements carried the store's crack configuration, version 9 whose
// elements carried the tuner's posture, version 10 whose cuts carried an
// inclusive flag, version 11 whose column records carried a sorted flag,
// and a version from the future, hand-encoded here with a valid trailer —
// is refused by version, loudly, and never mistaken for corruption (which
// would read as "the disk ate it" rather than "this build does not read
// it").
func TestOldImageVersionRefused(t *testing.T) {
	for _, version := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, imageVersion + 1} {
		body := append([]byte{}, imageMagic[:]...)
		body = append(body, version)
		body = binary.LittleEndian.AppendUint64(body, 11) // the old header's appliedSeq
		body = binary.LittleEndian.AppendUint32(body, uint32(len("standard")))
		body = append(body, "standard"...)
		body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		path := filepath.Join(t.TempDir(), "crackstate.crk")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadImage(path)
		want := fmt.Sprintf("unsupported image version %d (this build reads version 12)", version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: want %q, got %v", version, want, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d refused as corruption: %v", version, err)
		}
	}
}
