package strategy

import (
	"strings"
	"testing"

	"crackdb/internal/core"
)

// TestPRNGDeterminism: equal seeds reproduce equal streams; the stream
// is not trivially constant.
func TestPRNGDeterminism(t *testing.T) {
	a, b := newPRNG(42), newPRNG(42)
	distinct := false
	prev := -1
	for i := 0; i < 1000; i++ {
		x, y := a.Intn(1<<20), b.Intn(1<<20)
		if x != y {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, x, y)
		}
		if x != prev {
			distinct = true
		}
		prev = x
	}
	if !distinct {
		t.Fatal("prng emitted a constant stream")
	}
	if c := newPRNG(43).Intn(1 << 20); c == newPRNG(42).Intn(1<<20) {
		t.Log("different seeds agreed on the first draw (possible but unlikely)")
	}
}

// TestRNGStateRoundTrip is the durability contract: Export mid-stream,
// Restore, and the restored instance must continue the exact draw
// sequence the original produces next — not restart from the seed.
func TestRNGStateRoundTrip(t *testing.T) {
	orig := NewDDR(0, 7)
	rng := orig.rng
	// Burn part of the stream, as a live column would.
	for i := 0; i < 57; i++ {
		rng.Intn(1000)
	}
	restored, err := Restore(orig.Export())
	if err != nil {
		t.Fatal(err)
	}
	rng2 := restored.(*DDR).rng
	for i := 0; i < 200; i++ {
		if a, b := rng.Intn(1<<30), rng2.Intn(1<<30); a != b {
			t.Fatalf("draw %d after restore: %d != %d", i, a, b)
		}
	}
	// A fresh instance from the same seed must NOT match (proving the
	// round-trip carries position, not just the seed).
	if NewDDR(0, 7).rng.state == rng.state {
		t.Fatal("restored state equals a fresh instance's")
	}
}

// TestRestoreRejectsUnknown: a snapshot naming an unknown strategy must
// fail restore loudly, naming it — retired strategies included, which
// older images may still carry.
func TestRestoreRejectsUnknown(t *testing.T) {
	for _, name := range []string{"quantum", "ddc", "mdd1r"} {
		_, err := Restore(core.StrategyState{Name: name, MinPiece: 2048, RNG: 7})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("restore of %q: %v, want an error naming it", name, err)
		}
	}
	if s, err := Restore(core.StrategyState{Name: "standard"}); err != nil || s != nil {
		t.Fatalf("standard restore: %v, %v (want nil, nil)", s, err)
	}
}

// TestExportCarriesMinPiece: the cut-off granularity survives the trip.
func TestExportCarriesMinPiece(t *testing.T) {
	d := NewDDR(512, 3)
	st := d.Export()
	if st.MinPiece != 512 {
		t.Fatalf("exported MinPiece %d, want 512", st.MinPiece)
	}
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.(*DDR).minPiece != 512 {
		t.Fatalf("restored MinPiece %d, want 512", r.(*DDR).minPiece)
	}
}
