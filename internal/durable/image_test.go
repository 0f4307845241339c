package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/sideways"
	"crackdb/internal/tuner"
)

func sampleColumn(table, attr string, n int) ColumnSnapshot {
	st := core.ColumnState{
		Name:    attr,
		NextOID: bat.OID(n + 3),
		Cuts: []core.Cut{
			{Val: 10, Incl: false, Pos: 2},
			{Val: 40, Incl: true, Pos: 5},
		},
		Pending: []core.PendingState{{OID: bat.OID(n), Val: 77}},
		Deleted: []bat.OID{1},
		Strategy: &core.StrategyState{
			Name: "mdd1r", MinPiece: 128, RNG: 0xdeadbeefcafe,
		},
	}
	for i := 0; i < n; i++ {
		st.Vals = append(st.Vals, int64(i*7%50))
		st.OIDs = append(st.OIDs, bat.OID(i))
	}
	return ColumnSnapshot{Table: table, Attr: attr, State: st}
}

func sampleSideways() []sideways.MapState {
	return []sideways.MapState{{
		Table: "hot", Key: "k",
		Keys: []int64{1, 2, 3}, OIDs: []bat.OID{0, 1, 2},
		Cuts: []core.Cut{{Val: 2, Incl: true, Pos: 1}},
		Pays: []sideways.PayState{{Attr: "v", Vals: []int64{9, 8, 7}}},
	}}
}

// sampleDelta is a non-base element: one clean table, one rewritten.
func sampleDelta() *Image {
	return &Image{
		PrevSum: 0x1234abcd,
		Config: StoreConfig{
			StrategyName: "ddc", StrategySeed: 7, MaxPieces: 4096,
			SidewaysBudget: 3,
		},
		Tables: []ImageTable{
			{Name: "cold", Cols: []string{"k", "v"}, Rows: 100, Deleted: []bat.OID{}},
			{Name: "hot", Cols: []string{"k", "v"}, Rows: 9, Deleted: []bat.OID{2, 5}, DataDirty: true},
		},
		Columns:  []ColumnSnapshot{sampleColumn("hot", "k", 9)},
		Touched:  []string{"hot"},
		Sideways: sampleSideways(),
		Tuner:    []tuner.ColumnState{{Table: "hot", Column: "k", Strategy: "ddr", Class: "seq", Flips: 3, Forced: true}},
	}
}

// sampleBase is a full image: the element with nothing before it.
func sampleBase() *Image {
	img := sampleDelta()
	img.Base, img.PrevSum = true, 0
	img.Tables[0].DataDirty = true
	img.Columns = append(img.Columns, sampleColumn("cold", "v", 100))
	img.Touched = []string{"cold", "hot"}
	return img
}

// TestImageRoundTrip: every field of an element survives the disk, base
// or delta, and the write-side checksum is the one the reader verifies.
func TestImageRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *Image
	}{
		{"base", sampleBase()},
		{"delta", sampleDelta()},
		{"config-only base", &Image{
			Base:   true,
			Config: StoreConfig{StrategyName: "mdd1r", StrategySeed: 7, MaxPieces: 100},
		}},
		{"crack-only delta", &Image{
			PrevSum: 0, // 0 is a valid CRC: a delta all the same
			Tables:  []ImageTable{{Name: "hot", Cols: []string{"k"}, Rows: 9, Deleted: []bat.OID{}}},
			Columns: []ColumnSnapshot{sampleColumn("hot", "k", 9)},
			Touched: []string{"hot"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "img.crk")
			wsum, err := WriteImage(path, tc.img)
			if err != nil {
				t.Fatal(err)
			}
			got, rsum, err := ReadImage(path)
			if err != nil {
				t.Fatal(err)
			}
			if wsum != rsum {
				t.Fatalf("write sum %08x, read sum %08x", wsum, rsum)
			}
			if !reflect.DeepEqual(tc.img, got) {
				t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", tc.img, got)
			}
		})
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
		img.Config.StrategySeed++
		s2, err := WriteImage(filepath.Join(dir, "b.crk"), img)
		if err != nil {
			t.Fatal(err)
		}
		if s1 == s2 {
			t.Fatalf("different content, same checksum %08x", s1)
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
	if s1 == s2 {
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

// TestOldImageVersionRefused: images from before the single format —
// CRKS versions 1 to 3, hand-encoded here with a valid trailer — are
// refused by version, loudly, and never mistaken for corruption (which
// would read as "the disk ate it" rather than "re-save it").
func TestOldImageVersionRefused(t *testing.T) {
	for _, version := range []uint8{1, 2, 3, imageVersion + 1} {
		body := append([]byte{}, imageMagic[:]...)
		body = append(body, version)
		body = binary.LittleEndian.AppendUint64(body, 11) // the old header's appliedSeq
		body = appendString(body, "standard")
		body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		path := filepath.Join(t.TempDir(), "crackstate.crk")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadImage(path)
		if err == nil || !strings.Contains(err.Error(), "unsupported image version") {
			t.Fatalf("version %d: want an unsupported-version refusal, got %v", version, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d refused as corruption: %v", version, err)
		}
	}
}
