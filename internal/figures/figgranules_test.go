package figures

import (
	"slices"
	"testing"
)

// TestFigGranulesShape: the first count partitions the whole column, so
// its delta element is at least half a full image; once the column has
// converged a delta carries the pieces a count cracks, and the median
// element over the second half of the stream is at most a tenth of the
// first. replay checks every count on the way.
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
	if first < full.Points[0].Y/2 {
		t.Fatalf("the first count's delta is %g bytes, under half the %g-byte full image", first, full.Points[0].Y)
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
