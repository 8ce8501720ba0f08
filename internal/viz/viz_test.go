package viz

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

func buildIndex(t *testing.T, n int) *core.Index {
	t.Helper()
	ix, err := core.New(dht.MustNewLocal(8), index.Tuning{Capacity: 30, MergeThreshold: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range dataset.Generate(n, 5) {
		if err := ix.Insert(rec); err != nil {
			t.Fatalf("insert #%d: %v", i, err)
		}
	}
	return ix
}

// wellFormed checks the SVG parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v", err)
		}
	}
}

func TestRenderPartition(t *testing.T) {
	ix := buildIndex(t, 2000)
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	svg, err := RenderPartition(ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	// One rect per bucket plus background and legend swatches.
	cellCount := strings.Count(svg, "<title>#") // every cell tooltip names a label
	if cellCount != len(buckets) {
		t.Errorf("SVG has %d cell tooltips, index has %d buckets", cellCount, len(buckets))
	}
	// Light surface, ink text, legend caption present.
	for _, want := range []string{"#fcfcfb", "#0b0b0b", "records per bucket", "aria-label"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Every fill comes from the documented ramp or the surface.
	th := themes[Light]
	allowed := map[string]bool{th.surface: true}
	for _, hex := range th.ramp {
		allowed[hex] = true
	}
	for _, line := range strings.Split(svg, "\n") {
		if i := strings.Index(line, `fill="#`); i >= 0 {
			hex := line[i+6 : i+13]
			if !allowed[hex] && hex != th.inkStrong && hex != th.inkSoft {
				t.Errorf("unexpected fill %q", hex)
			}
		}
	}
}

func TestRenderDarkMode(t *testing.T) {
	ix := buildIndex(t, 500)
	svg, err := RenderPartition(ix, Options{Mode: Dark, Title: "dark partition"})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if !strings.Contains(svg, "#1a1a19") || !strings.Contains(svg, "dark partition") {
		t.Error("dark surface or title missing")
	}
	if strings.Contains(svg, "#fcfcfb") {
		t.Error("light surface leaked into dark mode")
	}
}

func TestRenderQueryAnnotation(t *testing.T) {
	ix := buildIndex(t, 500)
	q, err := spatial.NewRect(spatial.Point{0.2, 0.3}, spatial.Point{0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	svg, err := RenderPartition(ix, Options{Query: &q})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if !strings.Contains(svg, "stroke-dasharray") || !strings.Contains(svg, "query ") {
		t.Error("query annotation missing")
	}
}

func TestRenderRejectsNon2D(t *testing.T) {
	ix, err := core.New(dht.MustNewLocal(2), index.Tuning{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RenderPartition(ix, Options{}); err == nil {
		t.Error("3-D index rendered")
	}
}

func TestRampBin(t *testing.T) {
	steps := 7
	if rampBin(0, 100, steps) != 0 {
		t.Error("zero load must take the zero bin")
	}
	if rampBin(1, 100, steps) == 0 {
		t.Error("non-zero load must not share the zero bin")
	}
	if rampBin(100, 100, steps) != steps-1 {
		t.Error("max load must take the darkest bin")
	}
	// Monotone non-decreasing in load.
	prev := 0
	for load := 0; load <= 100; load++ {
		b := rampBin(load, 100, steps)
		if b < prev {
			t.Fatalf("ramp bin decreased at load %d", load)
		}
		prev = b
	}
}

func TestXMLEscape(t *testing.T) {
	ix := buildIndex(t, 50)
	svg, err := RenderPartition(ix, Options{Title: `a<b>&"c"`})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if strings.Contains(svg, `a<b>`) {
		t.Error("title not escaped")
	}
}

func TestDeterministicOutput(t *testing.T) {
	ix := buildIndex(t, 300)
	a, err := RenderPartition(ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderPartition(ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("rendering not deterministic")
	}
	_ = fmt.Sprint()
}

// TestGeometryTilesPlot substitutes for the visual inspection pass in this
// headless environment: every cell rectangle must stay inside the viewBox,
// and the cells must exactly tile the plot area (areas sum to the plot
// square, since kd-tree leaves tile the unit square).
func TestGeometryTilesPlot(t *testing.T) {
	ix := buildIndex(t, 3000)
	svg, err := RenderPartition(ix, Options{Width: 720})
	if err != nil {
		t.Fatal(err)
	}
	var width, height float64
	if _, err := fmt.Sscanf(svg[:120], `<svg xmlns="http://www.w3.org/2000/svg" width="%f" height="%f"`, &width, &height); err != nil {
		t.Fatalf("parse svg header: %v", err)
	}
	totalArea := 0.0
	cellCount := 0
	for _, line := range strings.Split(svg, "\n") {
		if !strings.Contains(line, "<title>#") {
			continue // cells only
		}
		cellCount++
		var x, y, w, h float64
		if _, err := fmt.Sscanf(line, `<rect x="%f" y="%f" width="%f" height="%f"`, &x, &y, &w, &h); err != nil {
			t.Fatalf("parse cell: %v in %q", err, line[:60])
		}
		if x < 0 || y < 0 || x+w > width+0.01 || y+h > height+0.01 {
			t.Fatalf("cell escapes viewBox: x=%f y=%f w=%f h=%f", x, y, w, h)
		}
		totalArea += w * h
	}
	plotW := 720.0 - 2*16
	// Coordinates are emitted at 2-decimal precision, so each cell can be
	// off by ~0.005px per edge; scale the tolerance with the cell count.
	tolerance := 0.05*float64(cellCount) + 1
	if diff := totalArea - plotW*plotW; diff > tolerance || diff < -tolerance {
		t.Errorf("cells do not tile the plot: area %f vs %f", totalArea, plotW*plotW)
	}
}
