package bat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestAppendAndAccess(t *testing.T) {
	b := NewInt("r_a", 4)
	for i := int64(0); i < 10; i++ {
		if err := b.AppendInt(i * 2); err != nil {
			t.Fatalf("AppendInt: %v", err)
		}
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	for i := 0; i < 10; i++ {
		if got := b.Int(i); got != int64(i*2) {
			t.Errorf("Int(%d) = %d, want %d", i, got, i*2)
		}
		if got := b.OID(i); got != OID(i) {
			t.Errorf("OID(%d) = %d, want %d", i, got, i)
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	b := FromInts("base", []int64{10, 20, 30, 40, 50})
	v := b.View(1, 4)
	if v.Len() != 3 {
		t.Fatalf("view len = %d, want 3", v.Len())
	}
	if !v.IsView() || v.Parent() != b {
		t.Fatal("view lineage not recorded")
	}
	if v.HSeqBase() != 1 {
		t.Fatalf("view hseq = %d, want 1", v.HSeqBase())
	}
	if got := v.OID(0); got != 1 {
		t.Fatalf("view OID(0) = %d, want 1", got)
	}
	// A write through the view must be visible in the parent: the cracker
	// shuffles tuples inside view windows.
	v.SetInt(0, 99)
	if b.Int(1) != 99 {
		t.Fatalf("parent did not observe view write: %d", b.Int(1))
	}
	if err := v.AppendInt(1); err == nil {
		t.Fatal("append to view succeeded, want error")
	}
}

func TestViewBoundsPanics(t *testing.T) {
	b := FromInts("base", []int64{1, 2, 3})
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d,%d) did not panic", c[0], c[1])
				}
			}()
			b.View(c[0], c[1])
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	b := FromInts("orig", []int64{1, 2, 3})
	c := b.Clone("copy")
	c.SetInt(0, 42)
	if b.Int(0) != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestPersistRoundTripInt(t *testing.T) {
	b := FromInts("disk", []int64{-5, 0, 7, 1 << 40})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBAT("disk", &buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if got.Int(i) != b.Int(i) {
			t.Fatalf("pos %d: %d != %d", i, got.Int(i), b.Int(i))
		}
	}
}

func TestPersistDetectsTruncation(t *testing.T) {
	b := FromInts("t", []int64{1, 2, 3, 4, 5})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadBAT("t", bytes.NewReader(full[:cut]), int64(cut)); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
		// An input shorter than its stated size ends the read early.
		if _, err := ReadBAT("t", bytes.NewReader(full[:cut]), int64(len(full))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short read at %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

func TestPersistDetectsCorruption(t *testing.T) {
	b := FromInts("c", []int64{9, 8, 7})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 0xff
	if _, err := ReadBAT("c", bytes.NewReader(img), int64(len(img))); err == nil {
		t.Fatal("bit flip not detected")
	}
}

// A count field flipped to 2^38 must fail as corruption because the input
// cannot hold it, not size an allocation of 2 TiB that kills the process.
func TestReadBATHugeCountIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if _, err := FromInts("x", []int64{1, 2, 3}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	binary.LittleEndian.PutUint64(img[9:17], 1<<38)
	if _, err := ReadBAT("x", bytes.NewReader(img), int64(len(img))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^38 over 3 values: want ErrCorrupt, got %v", err)
	}
	// Boot loads from a file, through the same decoder sized by the file.
	path := filepath.Join(t.TempDir(), "x.bat")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("x", path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of count 2^38 over 3 values: want ErrCorrupt, got %v", err)
	}
}

// A BAT is an int64 vector: any other tail type byte is corruption.
func TestReadBATRefusesOtherTailTypes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := FromInts("x", []int64{1}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[4] = 1 // what a string tail used to write
	if _, err := ReadBAT("x", bytes.NewReader(img), int64(len(img))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tail type 1: want ErrCorrupt, got %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	b := FromInts("file", []int64{11, 22, 33})
	path := dir + "/file.bat"
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load("file", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Int(1) != 22 {
		t.Fatal("file round trip lost data")
	}
}

// Property: persistence round-trips arbitrary integer vectors.
func TestQuickPersistRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		b := FromInts("q", vals)
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadBAT("q", &buf, int64(buf.Len()))
		if err != nil {
			return false
		}
		if got.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Int(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNamingAndTypeAccessors(t *testing.T) {
	b := NewInt("orig", 0)
	if b.Name() != "orig" {
		t.Fatalf("Name = %q", b.Name())
	}
	b.SetName("renamed")
	if b.Name() != "renamed" {
		t.Fatalf("SetName failed: %q", b.Name())
	}
	if got := b.String(); got != "bat[void,int]renamed#0" {
		t.Fatalf("String = %q", got)
	}
	v := FromInts("x", []int64{1}).View(0, 1)
	if got := v.String(); got != "view[void,int]x[0:1]#1" {
		t.Fatalf("view String = %q", got)
	}
}

func TestAppendInts(t *testing.T) {
	b := NewInt("bulk", 0)
	if err := b.AppendInts(3, 1, 2); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Int(2) != 2 {
		t.Fatal("AppendInts lost data")
	}
	if err := b.View(0, 1).AppendInts(9); err == nil {
		t.Fatal("AppendInts on view succeeded")
	}
}

func TestSaveFailsOnBadPath(t *testing.T) {
	b := FromInts("x", []int64{1})
	if err := b.Save("/nonexistent-dir-zzz/x.bat"); err == nil {
		t.Fatal("Save to bad path succeeded")
	}
	if _, err := Load("x", "/nonexistent-dir-zzz/x.bat"); err == nil {
		t.Fatal("Load from bad path succeeded")
	}
}
