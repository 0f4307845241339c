//go:build budget

package crackdb

import (
	"hash/crc32"
	"os"
	"runtime"
	"testing"
	"time"
)

// Boot is decode: reopening a saved store reads every vector of its image
// in one piece, so it costs a small multiple of reading and checksumming
// the file — not a read call per value. The gate is built only with
// -tags budget, which CI's budget-gates step sets: its bound is CPU time,
// which a loaded machine stretches. TestBootDecodeAllocBudget holds the
// same property, counted, in every run of the suite.
func TestBootDecodeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is meaningless")
	}
	if _, ok := threadCPU(t, func() {}); !ok {
		t.Skip("no thread CPU clock on this platform")
	}
	path, _ := bootImage(t)
	// Each side is timed as the CPU time of the thread that runs it (Open
	// runs on one goroutine), not as wall time: other processes competing
	// for the cores stretch the wall time of whichever side they overlap,
	// and the collector's background workers run on other threads as the
	// heap happens to need them, but neither changes the work either side
	// does. The sides alternate over seven rounds and each keeps its
	// least.
	timed := func(f func()) time.Duration {
		runtime.GC()
		d, _ := threadCPU(t, f)
		return d
	}
	open, read := time.Duration(1<<63-1), time.Duration(1<<63-1)
	var bytes int64
	for round := 0; round < 7; round++ {
		open = min(open, timed(func() {
			if _, err := Open(path); err != nil {
				t.Fatal(err)
			}
		}))
		read = min(read, timed(func() {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			crc32.ChecksumIEEE(data)
			bytes = int64(len(data))
		}))
	}
	ratio := float64(open) / float64(read)
	t.Logf("Open %v, read + CRC of the same %d bytes %v of thread CPU: ratio %.1f", open, bytes, read, ratio)
	if ratio > 5 {
		t.Fatalf("Open costs %.1f x reading and checksumming its file, budget 5 x", ratio)
	}
}
