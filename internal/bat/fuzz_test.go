package bat

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// FuzzBATDecode feeds arbitrary bytes to ReadBAT, the decoder Load (and so
// boot) reads every BAT file through: no panic, allocation
// bounded by the input rather than by a corrupt count field, and a
// successful read must survive a write/read round trip. The seed corpus
// under testdata/fuzz covers a valid BAT, a truncation, a bit flip and a
// huge count; CI runs the target for 30 seconds (fuzz-smoke job).
func FuzzBATDecode(f *testing.F) {
	var buf bytes.Buffer
	if _, err := FromInts("seed", []int64{-5, 0, 7, 1 << 40, 3}).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b, err := ReadBAT("fuzz", bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&m1)
		// The vector and the read chunk, each no larger than the input.
		if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(2*len(data)+4096); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if err != nil {
			return // clean refusal
		}
		var again bytes.Buffer
		if _, err := b.WriteTo(&again); err != nil {
			t.Fatalf("re-write of a decoded BAT failed: %v", err)
		}
		b2, err := ReadBAT("fuzz", &again, int64(again.Len()))
		if err != nil {
			t.Fatalf("re-read of a re-written BAT failed: %v", err)
		}
		if b2.HSeqBase() != b.HSeqBase() || !slices.Equal(b2.Ints(), b.Ints()) {
			t.Fatal("BAT not stable under write/read")
		}
	})
}
