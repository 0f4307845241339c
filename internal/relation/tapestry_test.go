package relation

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func TestTapestryColumnsArePermutations(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100, 1000} {
		tbl := Tapestry(n, 3, 42)
		if tbl.Len() != n || tbl.Arity() != 3 {
			t.Fatalf("n=%d: shape %d×%d", n, tbl.Len(), tbl.Arity())
		}
		for _, cn := range tbl.ColumnNames() {
			b := tbl.MustColumn(cn)
			seen := make([]bool, n+1)
			for i := 0; i < n; i++ {
				v := b.Int(i)
				if v < 1 || v > int64(n) {
					t.Fatalf("n=%d col %s: value %d outside 1..%d", n, cn, v, n)
				}
				if seen[v] {
					t.Fatalf("n=%d col %s: duplicate value %d", n, cn, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestTapestryDeterministicPerSeed(t *testing.T) {
	a := Tapestry(100, 2, 7)
	b := Tapestry(100, 2, 7)
	c := Tapestry(100, 2, 8)
	same, diff := true, true
	for i := 0; i < 100; i++ {
		if a.MustColumn("c0").Int(i) != b.MustColumn("c0").Int(i) {
			same = false
		}
		if a.MustColumn("c0").Int(i) != c.MustColumn("c0").Int(i) {
			diff = false
		}
	}
	if !same {
		t.Fatal("same seed produced different tables")
	}
	if diff {
		t.Fatal("different seeds produced identical tables")
	}
}

// TestTapestryGolden pins the generator's output: a KindTapestry WAL
// record stores only (n, alpha, seed), so on-disk logs replay to the
// same rows only while Tapestry keeps producing these exact values.
func TestTapestryGolden(t *testing.T) {
	tbl := Tapestry(1000, 2, 42)
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, cn := range tbl.ColumnNames() {
		b := tbl.MustColumn(cn)
		for i := 0; i < tbl.Len(); i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(b.Int(i)))
			h.Write(buf[:])
		}
	}
	const want = 0x486cc146
	if got := h.Sum32(); got != want {
		t.Fatalf("Tapestry(1000, 2, 42) checksum %#08x, want %#08x — the generator changed; existing WALs would replay different rows", got, want)
	}
}
