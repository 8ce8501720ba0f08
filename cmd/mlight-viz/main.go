// Command mlight-viz renders an m-LIGHT index's space partition as an SVG
// heatmap: one cell per leaf bucket, shaded by record count. It makes the
// behaviour of the two splitting strategies — and the skew of the NE
// dataset — directly visible.
//
//	mlight-viz -n 30000 -strategy data-aware -o partition.svg
//	mlight-viz -n 30000 -query 0.3,0.45,0.5,0.65 -mode dark -o dark.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mlight-viz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mlight-viz", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 30000, "records to index")
		seed     = fs.Int64("seed", 1, "dataset seed")
		theta    = fs.Int("theta", 100, "θsplit")
		epsilon  = fs.Int("epsilon", 70, "ε (data-aware strategy)")
		strategy = fs.String("strategy", "threshold", "splitting strategy: threshold or data-aware")
		mode     = fs.String("mode", "light", "rendering mode: light or dark")
		width    = fs.Int("width", 720, "plot width in pixels")
		queryStr = fs.String("query", "", "query rectangle to annotate: x1,y1,x2,y2")
		out      = fs.String("o", "", "output file (default stdout)")
		dataCSV  = fs.String("dataset", "", "CSV file of points instead of the synthetic NE data")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	t := index.Tuning{Capacity: *theta, Epsilon: *epsilon}
	switch *strategy {
	case "threshold":
		t.Strategy = index.SplitThreshold
	case "data-aware":
		t.Strategy = index.SplitDataAware
		t.MergeThreshold = *epsilon / 2
	default:
		return fmt.Errorf("unknown strategy %q (want threshold or data-aware)", *strategy)
	}
	ix, err := core.New(dht.MustNewLocal(64), t)
	if err != nil {
		return err
	}
	records := dataset.Generate(*n, *seed)
	if *dataCSV != "" {
		f, err := os.Open(*dataCSV)
		if err != nil {
			return err
		}
		records, err = dataset.LoadCSV(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
	}
	if err := ix.BulkLoad(records); err != nil {
		return err
	}

	vopts := viz.Options{
		Width: *width,
		Title: fmt.Sprintf("m-LIGHT partition — %s splitting, %d records", *strategy, len(records)),
	}
	switch *mode {
	case "light":
		vopts.Mode = viz.Light
	case "dark":
		vopts.Mode = viz.Dark
	default:
		return fmt.Errorf("unknown mode %q (want light or dark)", *mode)
	}
	if *queryStr != "" {
		q, err := parseRect(*queryStr)
		if err != nil {
			return err
		}
		vopts.Query = &q
	}
	svg, err := viz.RenderPartition(ix, vopts)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err := os.Stdout.WriteString(svg)
		return err
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d buckets)\n", *out, strings.Count(svg, "<title>#"))
	return nil
}

func parseRect(s string) (spatial.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return spatial.Rect{}, fmt.Errorf("query must be x1,y1,x2,y2, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return spatial.Rect{}, fmt.Errorf("query coordinate %d: %w", i, err)
		}
		vals[i] = v
	}
	return spatial.NewRect(spatial.Point{vals[0], vals[1]}, spatial.Point{vals[2], vals[3]})
}
