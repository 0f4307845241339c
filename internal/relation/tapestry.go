package relation

import (
	"fmt"
	"math/rand"
)

// Tapestry builds the DBtapestry table: N rows and α columns where each
// column holds a permutation of 1..N. As in the paper's generator, each
// column starts from a small seed permutation, replicates it to the
// required size, and is then shuffled into a random distribution.
func Tapestry(n, alpha int, seed int64) *Table {
	cols := make([]string, alpha)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	t := New("tapestry", cols...)
	rng := rand.New(rand.NewSource(seed))
	for ci := 0; ci < alpha; ci++ {
		t.MustColumn(cols[ci]).AppendInts(tapestryColumn(n, rng)...)
	}
	return t
}

// tapestryColumn produces one permutation of 1..n via seed replication
// and shuffling.
func tapestryColumn(n int, rng *rand.Rand) []int64 {
	const seedSize = 16
	// Seed permutation of 1..min(seedSize, n).
	base := seedSize
	if n < base {
		base = n
	}
	seedPerm := rng.Perm(base)

	vals := make([]int64, n)
	// Replicate the seed across blocks: block b holds values
	// b*base+seedPerm[...]+1, giving a full permutation of 1..n once the
	// remainder is filled in.
	i := 0
	for block := 0; i < n; block++ {
		for _, p := range seedPerm {
			v := int64(block*base + p + 1)
			if v > int64(n) {
				continue
			}
			if i < n {
				vals[i] = v
				i++
			}
		}
		if block*base > n { // safety: remainder handled below
			break
		}
	}
	// Fill any positions the block scheme missed (remainder values).
	used := make([]bool, n+1)
	for _, v := range vals[:i] {
		if v >= 1 && v <= int64(n) {
			used[v] = true
		}
	}
	for v := int64(1); v <= int64(n) && i < n; v++ {
		if !used[v] {
			vals[i] = v
			i++
		}
	}
	// Final shuffle for a random distribution of tuples.
	rng.Shuffle(n, func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
	return vals
}
