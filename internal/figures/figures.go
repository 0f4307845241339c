// Package figures regenerates every figure of the paper's evaluation:
// one generator per figure, each returning labelled series that
// cmd/crackbench renders as TSV and the root bench suite times. The
// mapping from figure to modules is DESIGN.md's figure index. Figures
// about cracking behaviour measure a *crackdb.Store through runner.go.
package figures

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
	// DNF marks a series cut short because the configuration exceeded its
	// time budget — the paper's "breaking the system" outcome in Figure 9.
	DNF bool
}

// Figure is a reproduced plot.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// TSV renders the figure in a gnuplot-friendly tab-separated layout:
// one block per series.
func (f Figure) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		label := s.Label
		if s.DNF {
			label += " (DNF)"
		}
		fmt.Fprintf(&b, "\n# series: %s\n", label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// WriteTSV writes the TSV rendering.
func (f Figure) WriteTSV(w io.Writer) error {
	_, err := io.WriteString(w, f.TSV())
	return err
}

// Summary renders a short textual digest: per series, first point, last
// point, and min/max — enough to eyeball the shape in a terminal.
func (f Figure) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		suffix := ""
		if s.DNF {
			suffix = "  [DNF]"
		}
		if len(s.Points) == 0 {
			fmt.Fprintf(&b, "  %-28s (empty)%s\n", s.Label, suffix)
			continue
		}
		minY, maxY := s.Points[0].Y, s.Points[0].Y
		for _, p := range s.Points {
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		fmt.Fprintf(&b, "  %-28s first=(%g, %.4g) last=(%g, %.4g) min=%.4g max=%.4g%s\n",
			s.Label,
			s.Points[0].X, s.Points[0].Y,
			s.Points[len(s.Points)-1].X, s.Points[len(s.Points)-1].Y,
			minY, maxY, suffix)
	}
	return b.String()
}

// sortSeries orders series by label for deterministic output.
func sortSeries(ss []Series) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Label < ss[j].Label })
}

// seconds converts a duration to the float seconds the paper's axes use.
func seconds(d time.Duration) float64 { return d.Seconds() }
