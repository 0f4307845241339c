package algebra

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"

	"crackdb/internal/bat"
	"crackdb/internal/relation"
)

// Vectorized column-at-a-time operators: the MonetDB-shaped execution
// path (Profile.Vectorized). Where the Volcano engine interprets one
// tuple at a time, these run tight loops over whole BAT tail vectors and
// touch only the binary tables a query needs.

// VecSelect returns the positions in col whose value lies in
// [low, high] (inclusive bounds chosen by the flags).
func VecSelect(col *bat.BAT, low, high int64, lowIncl, highIncl bool) []int32 {
	vals := col.Ints()
	out := make([]int32, 0, len(vals)/8)
	for i, v := range vals {
		okLow := v > low || (lowIncl && v == low)
		okHigh := v < high || (highIncl && v == high)
		if okLow && okHigh {
			out = append(out, int32(i))
		}
	}
	return out
}

// VecCount counts qualifying tuples without materializing positions —
// Figure 1(c) on the vectorized engine.
func VecCount(col *bat.BAT, low, high int64, lowIncl, highIncl bool) int {
	n := 0
	for _, v := range col.Ints() {
		okLow := v > low || (lowIncl && v == low)
		okHigh := v < high || (highIncl && v == high)
		if okLow && okHigh {
			n++
		}
	}
	return n
}

// VecPrint streams the selected positions of all table columns to the
// front-end writer — Figure 1(b) on the vectorized engine.
func VecPrint(t *relation.Table, positions []int32, w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)
	for _, p := range positions {
		buf = buf[:0]
		for j, c := range t.Cols {
			if j > 0 {
				buf = append(buf, '\t')
			}
			buf = strconv.AppendInt(buf, c.Data.Int(int(p)), 10)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return 0, err
		}
	}
	return len(positions), bw.Flush()
}

// VecMaterialize copies the selected positions into a new table,
// column-at-a-time — Figure 1(a) on the vectorized engine.
func VecMaterialize(t *relation.Table, positions []int32, name string) (*relation.Table, error) {
	cols := make([]relation.Column, len(t.Cols))
	for j, c := range t.Cols {
		vals := make([]int64, len(positions))
		src := c.Data.Ints()
		for i, p := range positions {
			vals[i] = src[p]
		}
		cols[j] = relation.Column{Name: c.Name, Data: bat.FromInts(name+"_"+c.Name, vals)}
	}
	return relation.FromColumns(name, cols...)
}

// VecChainJoin evaluates the k-way linear join of Figure 9 the
// binary-table way: each join step touches only the two join columns
// (inCol of the next table, outCol carried forward), so the per-step cost
// stays O(N) regardless of how wide the n-ary result would be. It
// returns the number of result tuples, or ctx's error if ctx ends
// between two join steps.
func VecChainJoin(ctx context.Context, tables []*relation.Table, outCol, inCol string) (int, error) {
	if len(tables) == 0 {
		return 0, fmt.Errorf("algebra: empty join chain")
	}
	first, err := tables[0].Column(outCol)
	if err != nil {
		return 0, err
	}
	frontier := append([]int64(nil), first.Ints()...)
	for i := 1; i < len(tables); i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		in, err := tables[i].Column(inCol)
		if err != nil {
			return 0, err
		}
		out, err := tables[i].Column(outCol)
		if err != nil {
			return 0, err
		}
		// Binary table inCol → outCol: one hash build, one probe pass.
		lookup := make(map[int64][]int64, in.Len())
		inVals, outVals := in.Ints(), out.Ints()
		for p, v := range inVals {
			lookup[v] = append(lookup[v], outVals[p])
		}
		next := make([]int64, 0, len(frontier))
		for _, v := range frontier {
			next = append(next, lookup[v]...)
		}
		frontier = next
	}
	return len(frontier), nil
}
