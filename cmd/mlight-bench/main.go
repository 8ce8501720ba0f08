// Command mlight-bench regenerates the tables and figures of the m-LIGHT
// paper's evaluation (ICDCS 2009, §7) — maintenance cost (Fig. 5), load
// balance (Fig. 6), range-query performance (Fig. 7) — and the measurements
// this repository adds beyond it. What it can run is one table,
// experiments.Sections; `mlight-bench -h` lists it.
//
// By default it runs every section "all" includes at the paper's scale (the
// 123,593-record synthetic NE dataset, 128 peers, θsplit=100, ε=70, D=28),
// printing each panel as an aligned table. Use -quick for a reduced preset,
// -figs to select sections, and -out to also write each table as
// <id>.csv and each section's machine-readable summary as
// BENCH_<section>.json. A flag given explicitly wins over either preset.
//
//	mlight-bench -quick
//	mlight-bench -figs fig5,fig7 -n 50000
//	mlight-bench -out results/           # regenerate the committed results
//	mlight-bench -dataset ne.csv         # use the real NE data
//	mlight-bench -figs concurrency -quick -out /tmp
//	mlight-bench -figs trace -trace trace.json -tracetree trace.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mlight/internal/dataset"
	"mlight/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlight-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// The shared knobs default to zero, "not given": the section's preset
	// fills those, so an explicit flag always wins.
	var cfg experiments.Config
	fs := flag.NewFlagSet("mlight-bench", flag.ContinueOnError)
	fs.IntVar(&cfg.DataSize, "n", 0, "number of records to index (paper: 123593)")
	fs.IntVar(&cfg.Peers, "peers", 0, "number of logical DHT peers (paper: 128)")
	fs.IntVar(&cfg.ThetaSplit, "theta", 0, "θsplit, the leaf/node capacity of all schemes (paper: 100)")
	fs.IntVar(&cfg.Epsilon, "epsilon", 0, "data-aware expected load ε (paper: 70)")
	fs.IntVar(&cfg.MaxDepth, "depth", 0, "index depth bound D (paper: 28)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "random seed for data and queries (default 1)")
	fs.IntVar(&cfg.QueriesPerSpan, "queries", 0, "queries averaged per range-span point (paper: 50)")
	fs.DurationVar(&cfg.HopDelay, "hopdelay", time.Millisecond, "one-way per-hop delay of the wall-clock sections' network")
	fs.StringVar(&cfg.TraceJSON, "trace", "", "run the trace section and write its Chrome trace_event JSON here")
	fs.StringVar(&cfg.TraceTree, "tracetree", "", "run the trace section and write its span tree and stage summary here")
	var (
		figs    = fs.String("figs", "all", experiments.Usage())
		quick   = fs.Bool("quick", false, "every section's reduced preset (the figures: 10k records, fewer queries)")
		outDir  = fs.String("out", "", "directory to also write each table's CSV and each section's BENCH_<section>.json to")
		dataCSV = fs.String("dataset", "", "CSV file of points to index instead of the synthetic NE data")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Usage: mlight-bench [flags]\n\nSections:")
		for _, s := range experiments.Sections {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", s.Name, s.Title)
		}
		fmt.Fprintln(fs.Output(), "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.HopDelay <= 0 {
		return fmt.Errorf("-hopdelay must be positive, got %v (a zero-delay network would make the wall-clock comparisons meaningless)", cfg.HopDelay)
	}
	if cfg.TraceJSON != "" || cfg.TraceTree != "" {
		*figs += ",trace"
	}
	sections, err := experiments.Select(*figs)
	if err != nil {
		return fmt.Errorf("-figs: %w", err)
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	if *dataCSV != "" {
		f, err := os.Open(*dataCSV)
		if err != nil {
			return err
		}
		cfg.Records, err = dataset.LoadCSV(f)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", *dataCSV, err)
		}
		if closeErr != nil {
			return closeErr
		}
		fmt.Fprintf(out, "loaded %d records from %s\n", len(cfg.Records), *dataCSV)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	for _, s := range sections {
		start := time.Now()
		fmt.Fprintf(out, "== %s ==\n", s.Title)
		rep, err := s.Run(cfg, scale)
		if err != nil {
			return err
		}
		for _, t := range rep.Tables {
			fmt.Fprintln(out, t.Format())
			if *outDir != "" {
				path := filepath.Join(*outDir, strings.ToLower(t.ID)+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "  (csv written to %s)\n\n", path)
			}
		}
		for _, line := range rep.Lines {
			fmt.Fprintln(out, line)
		}
		if rep.Summary != nil && *outDir != "" {
			data, err := json.MarshalIndent(rep.Summary, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(*outDir, "BENCH_"+s.Name+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "(json written to %s)\n", path)
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
