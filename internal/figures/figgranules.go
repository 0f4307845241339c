package figures

import (
	"fmt"
	"os"
	"path/filepath"

	"crackdb/internal/workload"
)

// FigGranulesConfig parameterizes the write-back figure.
type FigGranulesConfig struct {
	N           int     // tapestry cardinality (default 200 000)
	K           int     // queries (default 256)
	Seed        int64   // RNG seed
	Selectivity float64 // per-query range width fraction (default 0.01)
}

func (c *FigGranulesConfig) defaults() {
	if c.N <= 0 {
		c.N = 200_000
	}
	if c.K <= 0 {
		c.K = 256
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
}

// FigGranules plots the paper's granule argument on the store that
// serves: cost is counted in granules, "tuples or disk pages" (§2.2), and
// the reorganized incarnation "should be written back to persistent
// store" (§1). A tapestry store is saved whole, then after every random
// range count it writes and commits one delta element
// (Store.WriteImage(path, true)). Per query the figure reports the granules
// the count dirtied (ColumnStats.GranulesDirtied), the bytes of the delta
// element, and — every stride queries and at the last — the bytes of a
// full image. The first count partitions the whole column, so its element
// carries the column; later ones carry the pieces they crack, rounded out
// to granules, and shrink as the column converges.
func FigGranules(cfg FigGranulesConfig) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID:     "granules",
		Title:  fmt.Sprintf("write-back per query: granules dirtied and delta bytes vs the full image (N=%d)", cfg.N),
		XLabel: "query number",
		YLabel: "granules dirtied, or bytes written",
	}
	root, err := os.MkdirTemp("", "crackdb-granules-*")
	if err != nil {
		return Figure{}, err
	}
	defer os.RemoveAll(root)

	s, a, err := openStore(posture{}, cfg.N, cfg.Seed)
	if err != nil {
		return Figure{}, err
	}
	gen, err := workload.New(workload.Random, workload.Config{
		Domain: int64(cfg.N), Count: cfg.K, Selectivity: cfg.Selectivity, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return Figure{}, err
	}
	// element writes one committed element and returns its bytes.
	path := filepath.Join(root, "element.crk")
	element := func(delta bool) (int64, error) {
		commit, file, err := s.WriteImage(path, delta)
		if err != nil || commit == nil {
			return 0, err
		}
		commit()
		return file.Size, nil
	}
	if _, err := element(false); err != nil {
		return Figure{}, err
	}
	granules := Series{Label: "granules dirtied"}
	deltas := Series{Label: "delta element (bytes)"}
	fulls := Series{Label: "full image (bytes)"}
	stride := max(1, cfg.K/16)
	qs := fromWorkload(gen.Queries())
	var werr error
	err = replay(a, qs, func(i int, st step) {
		x := float64(i + 1)
		granules.Points = append(granules.Points, Point{X: x, Y: float64(st.Work.GranulesDirtied)})
		if werr == nil {
			var n int64
			n, werr = element(true)
			deltas.Points = append(deltas.Points, Point{X: x, Y: float64(n)})
		}
		if werr == nil && (i == 0 || (i+1)%stride == 0 || i == len(qs)-1) {
			var n int64
			n, werr = element(false)
			fulls.Points = append(fulls.Points, Point{X: x, Y: float64(n)})
		}
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return Figure{}, err
	}
	fig.Series = []Series{deltas, fulls, granules}
	return fig, nil
}
