package relation

import (
	"fmt"
	"math/rand"

	"crackdb/internal/bat"
)

// Tapestry builds the DBtapestry table: N rows and α columns where each
// column holds a permutation of 1..N. As in the paper's generator, each
// column starts from a small seed permutation, replicates it to the
// required size, and is then shuffled into a random distribution.
func Tapestry(n, alpha int, seed int64) *Table {
	cols := make([]Column, alpha)
	rng := rand.New(rand.NewSource(seed))
	for ci := range cols {
		name := fmt.Sprintf("c%d", ci)
		cols[ci] = Column{Name: name, Data: bat.FromInts("tapestry_"+name, tapestryColumn(n, rng))}
	}
	t, _ := FromColumns("tapestry", cols...) // distinct names, equal lengths
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

	// Replicate the seed across blocks: block b holds the values
	// b*base+seedPerm[...]+1 that do not exceed n, so blocks
	// 0..ceil(n/base)-1 place every value of 1..n exactly once.
	vals := make([]int64, n)
	for i, block := 0, 0; i < n; block++ {
		for _, p := range seedPerm {
			if v := block*base + p + 1; v <= n {
				vals[i] = int64(v)
				i++
			}
		}
	}
	// Final shuffle for a random distribution of tuples.
	rng.Shuffle(n, func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
	return vals
}
