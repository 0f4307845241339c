package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"crackdb/internal/bat"
)

// BenchmarkCrackKernel times the two crack kernels alone on a fresh
// piece of 1M uniform values in [0, 1M): crackInTwo at a cut leaving
// split % of the piece on its left, crackInThree at a range holding
// split % of it, centred in the domain, each without a payload vector
// and with one riding along. Every iteration restores the piece, so each
// times one crack over the same input; ns/tuple is the crack over the
// piece's length. It logs the entry address mod 64 of each kernel and of
// partition, the loop both run: a kernel's speed has been seen to move
// with its placement alone.
func BenchmarkCrackKernel(b *testing.B) {
	const n = 1 << 20
	for _, fn := range []any{(*Column).partition, (*Column).crackInTwo, (*Column).crackInThree} {
		f := runtime.FuncForPC(reflect.ValueOf(fn).Pointer())
		b.Logf("%s at %#x (%d mod 64)", f.Name(), f.Entry(), f.Entry()%64)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(n)
	}
	oids := make([]bat.OID, n)
	for i := range oids {
		oids[i] = bat.OID(i)
	}
	for _, pays := range []int{0, 1} {
		c := NewColumn("k", vals)
		if pays > 0 {
			if built, err := c.attachPayload("p", vals, 1); err != nil || !built {
				b.Fatalf("attach payload: built %v, err %v", built, err)
			}
		}
		c.lin = nil // no lineage log growing with b.N
		restore := func() {
			copy(c.vals, vals)
			copy(c.oids, oids)
			for _, p := range c.pays {
				copy(p.vals, vals)
			}
			c.idx.Reset()
		}
		for _, split := range []int64{1, 5, 25, 50} {
			width := n * split / 100
			for _, k := range []struct {
				name  string
				crack func()
			}{
				{"two", func() { c.crackInTwo(0, n, width) }},
				{"three", func() { c.crackInThree(0, n, (n-width)/2, (n+width)/2) }},
			} {
				b.Run(fmt.Sprintf("%s/split=%d%%/pays=%d", k.name, split, pays), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						restore()
						b.StartTimer()
						k.crack()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
				})
			}
		}
	}
}
