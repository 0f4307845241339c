package figures

import (
	"slices"
	"testing"
)

// TestFigGranulesShape: the first count partitions the whole column, so
// its delta element carries the column whole and is the full image less
// the table's 8·N bytes of rows; once the column has converged a delta
// carries the pieces a count cracks, and the median element over the
// second half of the stream is at most a tenth of the first. replay
// checks every count on the way.
func TestFigGranulesShape(t *testing.T) {
	f, err := FigGranules(FigGranulesConfig{N: 100_000, K: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deltas := findSeries(t, f, "delta element (bytes)")
	full := findSeries(t, f, "full image (bytes)")
	granules := findSeries(t, f, "granules dirtied")
	if len(deltas.Points) != 128 || len(granules.Points) != 128 {
		t.Fatalf("%d delta and %d granule points for 128 queries", len(deltas.Points), len(granules.Points))
	}
	first := deltas.Points[0].Y
	if rows := full.Points[0].Y - first; rows != 8*100_000 {
		t.Fatalf("the first count's delta is %g bytes, the full image %g: %g bytes apart, not the 8·N of the rows", first, full.Points[0].Y, rows)
	}
	var tail []float64
	for _, p := range deltas.Points[64:] {
		tail = append(tail, p.Y)
	}
	slices.Sort(tail)
	if median := tail[len(tail)/2]; median > first/10 {
		t.Fatalf("converged delta median %g bytes, more than a tenth of the first count's %g", median, first)
	}
	if g := granules.Points[0].Y; g < 100_000/512 {
		t.Fatalf("the first count dirtied %g granules of a %d-granule column", g, 100_000/512+1)
	}
}
