package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
)

// Report is what one section produces: the tables behind its figure panels,
// the findings it prints, and an optional machine-readable summary (anything
// encoding/json can marshal).
type Report struct {
	Tables  []Table
	Lines   []string
	Summary any
}

// Section is one entry of the reproduction: cmd/mlight-bench runs, prints
// and writes every entry the same way.
type Section struct {
	// Name is what -figs selects the section by; its summary is written as
	// BENCH_<Name>.json.
	Name string
	// Title heads the section's output.
	Title string
	// InAll reports whether "all" includes the section. The ones it leaves
	// out run in real time (their RPCs sleep for their modeled delays) or are
	// large.
	InAll bool
	// Run resolves cfg against the section's preset at scale — a field the
	// caller set wins — and runs it.
	Run func(cfg Config, scale Scale) (Report, error)
}

// Sections is the reproduction, in the order it runs. Adding a section is
// adding an entry.
var Sections = []Section{
	{"fig5", "Fig. 5: index maintenance", true, figure(fig5)},
	{"fig6", "Fig. 6: storage load balance", true, figure(pair(Fig6LoadBalance))},
	{"fig7", "Fig. 7: range query performance", true, figure(pair(Fig7RangeQuery))},
	{"extensions", "Extensions (beyond the paper)", true, figure(Extensions)},
	{"ablations", "Ablations (beyond the paper)", true, figure(Ablations)},
	{"concurrency", "Concurrency: wall-clock query execution (beyond the paper)", false,
		measured(concurrencyAt, concurrency, concurrencyReport)},
	{"lookup", "Lookup: overlay lookup acceleration (beyond the paper)", false,
		measured(lookupAt, lookup, lookupReport)},
	{"resilience", "Resilience: availability under message loss (beyond the paper)", false,
		measured(resilienceAt, resilience, resilienceReport)},
	{"ingest", "Ingest: wall-clock ingestion throughput (beyond the paper)", false,
		measured(ingestAt, ingest, ingestReport)},
	{"churn", "Churn: availability and recovery under membership churn (beyond the paper)", false,
		measured(churnAt, churn, churnReport)},
	{"scale", "Scale: 100k-peer overlay, 10M-record index in one process (beyond the paper)", false,
		measured(scaleAt, scaleOut, scaleReport)},
	{"trace", "Trace: one instrumented range query (beyond the paper)", false, runTrace},
}

// Names lists what Select accepts: "all", then every section.
func Names() []string {
	names := []string{"all"}
	for _, s := range Sections {
		names = append(names, s.Name)
	}
	return names
}

// Select resolves a comma-separated list of names to the sections to run, in
// table order.
func Select(list string) ([]Section, error) {
	names, want := Names(), map[string]bool{}
	for _, f := range strings.Split(strings.ToLower(list), ",") {
		name := strings.TrimSpace(f)
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown section %q (valid: %s)", name, strings.Join(names, ","))
		}
		want[name] = true
	}
	var out []Section
	for _, s := range Sections {
		if want[s.Name] || want["all"] && s.InAll {
			out = append(out, s)
		}
	}
	return out, nil
}

// Usage describes the list Select accepts, naming what "all" leaves out.
func Usage() string {
	var excluded []string
	for _, s := range Sections {
		if !s.InAll {
			excluded = append(excluded, s.Name)
		}
	}
	last := len(excluded) - 1
	return fmt.Sprintf("comma-separated sections: %s (all excludes %s and %s)",
		strings.Join(Names(), ","), strings.Join(excluded[:last], ", "), excluded[last])
}

// figure adapts an experiment that regenerates figure panels: it runs at the
// paper's own preset and reports its tables.
func figure(run func(Config) ([]Table, error)) func(Config, Scale) (Report, error) {
	return func(cfg Config, scale Scale) (Report, error) {
		cfg, err := cfg.at(scale, Config{})
		if err != nil {
			return Report{}, err
		}
		tables, err := run(cfg)
		return Report{Tables: tables}, err
	}
}

// measured assembles a section that reports a result of its own from its
// three parts: at resolves the section's preset at scale under what the caller
// set, run measures, report renders the result.
func measured[P, R any](at func(Config, Scale) (P, error), run func(P) (R, error), report func(R) Report) func(Config, Scale) (Report, error) {
	return func(cfg Config, scale Scale) (Report, error) {
		p, err := at(cfg, scale)
		if err != nil {
			return Report{}, err
		}
		res, err := run(p)
		if err != nil {
			return Report{}, err
		}
		return report(res), nil
	}
}

// pair adapts a two-panel figure to figure's shape.
func pair(run func(Config) (Table, Table, error)) func(Config) ([]Table, error) {
	return func(cfg Config) ([]Table, error) {
		a, b, err := run(cfg)
		return []Table{a, b}, err
	}
}

// fig5 is the section's four panels: cost against data size, then against
// θsplit.
func fig5(cfg Config) ([]Table, error) {
	bySize, err := pair(Fig5DataSize)(cfg)
	if err != nil {
		return nil, err
	}
	byTheta, err := pair(Fig5Theta)(cfg)
	return append(bySize, byTheta...), err
}

// runEach runs one-table experiments in order under the resolved cfg.
func runEach(cfg Config, parts ...func(Config) (Table, error)) ([]Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var out []Table
	for _, part := range parts {
		t, err := part(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// loadIndex builds an m-LIGHT index over d and inserts records one at a
// time.
func loadIndex(d dht.DHT, t index.Tuning, records []spatial.Record) (*core.Index, error) {
	ix, err := core.New(d, t)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for i, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return nil, fmt.Errorf("experiments: insert #%d: %w", i, err)
		}
	}
	return ix, nil
}

// deploy builds what every routed section measures: a stabilized Chord ring
// of peers nodes on net and an index loaded through it.
func deploy(net *simnet.Network, peers int, oc overlay.Config, t index.Tuning, records []spatial.Record) (*overlay.Overlay, *core.Index, error) {
	ring, err := substrate.Cluster("chord", net, peers, oc)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	ix, err := loadIndex(ring, t, records)
	return ring, ix, err
}
