// Package experiments regenerates every table and figure of the m-LIGHT
// paper's evaluation (§7): maintenance cost versus data size and θsplit
// (Fig. 5), storage load balance of the splitting strategies (Fig. 6), and
// range-query bandwidth and latency (Fig. 7), plus ablations beyond the
// paper. Each experiment returns Tables whose series carry the same axes
// the paper plots.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one named curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is the data behind one figure panel.
type Table struct {
	ID     string // e.g. "Fig5a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// xs returns the union of the series' x values in first-seen order: the
// table's rows.
func (t Table) xs() []float64 {
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

// Format renders the table as aligned text: one row per x value, one
// column per series — the shape the paper's plots encode.
func (t Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "  (x = %s, y = %s)\n", t.XLabel, t.YLabel)

	header := make([]string, 0, len(t.Series)+1)
	header = append(header, t.XLabel)
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range t.xs() {
		row := []string{formatNum(x)}
		for _, s := range t.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = formatNum(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		sb.WriteString(" ")
		for i, cell := range row {
			fmt.Fprintf(&sb, " %*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, s := range t.Series {
		sb.WriteString(",")
		sb.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	sb.WriteString("\n")
	for _, x := range t.xs() {
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		for _, s := range t.Series {
			sb.WriteString(",")
			for _, p := range s.Points {
				if p.X == x {
					sb.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
					break
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// SeriesByName returns the named series, if present.
func (t Table) SeriesByName(name string) (Series, bool) {
	for _, s := range t.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Last returns the final point of the series; ok is false when empty.
func (s Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// MeanY returns the average y over the series.
func (s Series) MeanY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}
