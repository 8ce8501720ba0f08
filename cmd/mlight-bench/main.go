// Command mlight-bench regenerates the tables and figures of the m-LIGHT
// paper's evaluation (ICDCS 2009, §7): maintenance cost (Fig. 5), load
// balance (Fig. 6), and range-query performance (Fig. 7).
//
// By default it runs every figure at the paper's scale (the 123,593-record
// synthetic NE dataset, 128 peers, θsplit=100, ε=70, D=28), printing each
// panel as an aligned table. Use -quick for a reduced preset, -figs to
// select panels, and -csvdir to also write machine-readable CSV files.
//
//	mlight-bench -quick
//	mlight-bench -figs fig5,fig7 -n 50000
//	mlight-bench -csvdir out/
//	mlight-bench -dataset ne.csv         # use the real NE data
//
// Seven more sections are not part of "all" — they run in real time (their
// RPCs sleep for their modeled delays, or cross real sockets) or are large.
// Each prints its findings and writes a machine-readable summary,
// BENCH_<section>.json, into -jsondir (default the current directory):
//
//   - concurrency: the wall-clock effect of the concurrent query engine and
//     the leaf-label lookup cache over a latency-bearing network;
//   - lookup: per-Get wall clock of the serial vs α-parallel iterative
//     Kademlia lookup, lossless and under link loss;
//   - resilience: range-query availability over a small Chord ring as the
//     message-loss rate rises, with and without the dht.Resilient layer;
//   - ingest: the same record stream loaded three ways — sequential Insert,
//     group-commit InsertBatch, offline BulkLoad — over identical 24-peer
//     Chord deployments at 1 ms/hop, verifying the batched modes changed
//     nothing about the resulting index;
//   - churn: a replicated Chord ring under deterministic schedules of
//     crashes, leaves, restarts and joins at increasing rates — point-read
//     availability with and without the retry layer, the maintenance rounds
//     needed to reconverge, and the durable store's crash-recovery cost
//     with and without its write-ahead log;
//   - wire: a real daemon cluster on loopback TCP, dialed through the
//     public client API — latency percentiles for raw framed RPC echoes,
//     inserts and range queries;
//   - scale: a 100,000-peer overlay and a 10,000,000-record index in one
//     process (-scalepeers, -scalerecords) — bulk ring construction, routed
//     lookups, bulk ingest, range queries, and the in-place allocation
//     gates on the two hot paths.
//
// For example:
//
//	mlight-bench -figs concurrency -quick -jsondir /tmp
//
// The trace section (not part of "all") runs one fully instrumented range
// query over a routed Chord cluster and exports the recorded span tree: a
// Chrome trace_event JSON (open in Perfetto or chrome://tracing) and a
// human-readable tree with a per-stage latency summary:
//
//	mlight-bench -figs trace -trace trace.json -tracetree trace.txt
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mlight"
	"mlight/internal/dataset"
	"mlight/internal/experiments"
	"mlight/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlight-bench:", err)
		os.Exit(1)
	}
}

// sections lists the names -figs accepts.
var sections = []string{"all", "fig5", "fig6", "fig7", "ablations", "extensions", "concurrency",
	"lookup", "resilience", "ingest", "churn", "wire", "scale", "trace"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mlight-bench", flag.ContinueOnError)
	var (
		n            = fs.Int("n", dataset.NESize, "number of records to index")
		peers        = fs.Int("peers", 128, "number of logical DHT peers")
		theta        = fs.Int("theta", 100, "θsplit (leaf/node capacity for all schemes)")
		epsilon      = fs.Int("epsilon", 70, "data-aware expected load ε")
		depth        = fs.Int("depth", 28, "index depth bound D")
		seed         = fs.Int64("seed", 1, "random seed for data and queries")
		queries      = fs.Int("queries", 50, "queries averaged per range-span point")
		figs         = fs.String("figs", "all", "comma-separated sections: "+strings.Join(sections, ",")+" (all excludes concurrency, lookup, resilience, ingest, churn, wire, scale and trace)")
		quick        = fs.Bool("quick", false, "reduced preset (10k records, fewer queries)")
		csvDir       = fs.String("csvdir", "", "directory to also write per-panel CSV files")
		dataCSV      = fs.String("dataset", "", "CSV file of points to index instead of the synthetic NE data")
		jsonDir      = fs.String("jsondir", ".", "directory the concurrency, lookup, resilience, ingest, churn, wire and scale sections write their BENCH_<section>.json summaries to")
		scalePeers   = fs.Int("scalepeers", 100_000, "overlay size of the scale section")
		scaleRecords = fs.Int("scalerecords", 10_000_000, "record count of the scale section")
		traceOut     = fs.String("trace", "", "run the trace section and write its Chrome trace_event JSON here (also selectable via -figs trace)")
		traceTxt     = fs.String("tracetree", "", "with the trace section: also write the human-readable span tree and stage summary here")
		hopDelay     = fs.Duration("hopdelay", time.Millisecond, "one-way per-hop delay of the concurrency section's network")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{
		DataSize:       *n,
		Peers:          *peers,
		ThetaSplit:     *theta,
		Epsilon:        *epsilon,
		MaxDepth:       *depth,
		Seed:           *seed,
		QueriesPerSpan: *queries,
	}
	if *quick {
		cfg.DataSize = 10000
		cfg.QueriesPerSpan = 15
		cfg.ThetaSplit = 50
		cfg.Epsilon = 35
		cfg.MaxDepth = 22
		cfg.Thetas = []int{25, 50, 100, 200}
	}
	if *dataCSV != "" {
		f, err := os.Open(*dataCSV)
		if err != nil {
			return err
		}
		records, err := dataset.LoadCSV(f)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", *dataCSV, err)
		}
		if closeErr != nil {
			return closeErr
		}
		cfg.Records = records
		fmt.Fprintf(out, "loaded %d records from %s\n", len(records), *dataCSV)
	}

	want := map[string]bool{}
	for _, f := range strings.Split(strings.ToLower(*figs), ",") {
		name := strings.TrimSpace(f)
		if !slices.Contains(sections, name) {
			return fmt.Errorf("-figs: unknown section %q (valid: %s)", name, strings.Join(sections, ","))
		}
		want[name] = true
	}
	all := want["all"]

	emit := func(tables ...experiments.Table) error {
		for _, t := range tables {
			fmt.Fprintln(out, t.Format())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(*csvDir, strings.ToLower(t.ID)+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "  (csv written to %s)\n\n", path)
			}
		}
		return nil
	}

	if all || want["fig5"] {
		start := time.Now()
		fmt.Fprintln(out, "== Fig. 5: index maintenance ==")
		a, b, err := experiments.Fig5DataSize(cfg)
		if err != nil {
			return err
		}
		if err := emit(a, b); err != nil {
			return err
		}
		c, d, err := experiments.Fig5Theta(cfg)
		if err != nil {
			return err
		}
		if err := emit(c, d); err != nil {
			return err
		}
		fmt.Fprintf(out, "(fig5 took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || want["fig6"] {
		start := time.Now()
		fmt.Fprintln(out, "== Fig. 6: storage load balance ==")
		a, b, err := experiments.Fig6LoadBalance(cfg)
		if err != nil {
			return err
		}
		if err := emit(a, b); err != nil {
			return err
		}
		fmt.Fprintf(out, "(fig6 took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || want["fig7"] {
		start := time.Now()
		fmt.Fprintln(out, "== Fig. 7: range query performance ==")
		a, b, err := experiments.Fig7RangeQuery(cfg)
		if err != nil {
			return err
		}
		if err := emit(a, b); err != nil {
			return err
		}
		fmt.Fprintf(out, "(fig7 took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || want["extensions"] {
		start := time.Now()
		fmt.Fprintln(out, "== Extensions (beyond the paper) ==")
		tables, err := experiments.Extensions(cfg)
		if err != nil {
			return err
		}
		if err := emit(tables...); err != nil {
			return err
		}
		fmt.Fprintf(out, "(extensions took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || want["ablations"] {
		start := time.Now()
		fmt.Fprintln(out, "== Ablations (beyond the paper) ==")
		tables, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		if err := emit(tables...); err != nil {
			return err
		}
		fmt.Fprintf(out, "(ablations took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["concurrency"] {
		if *hopDelay <= 0 {
			return fmt.Errorf("-hopdelay must be positive, got %v (a zero-delay network would make the wall-clock comparison meaningless)", *hopDelay)
		}
		start := time.Now()
		fmt.Fprintln(out, "== Concurrency: wall-clock query execution (beyond the paper) ==")
		ccfg := experiments.ConcurrencyConfig{Config: cfg, HopDelay: *hopDelay}
		if *quick {
			ccfg.DataSize = 2000
		}
		res, err := experiments.Concurrency(ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sequential %.1fms, concurrent %.1fms → %.2fx speedup\n",
			res.SequentialWallMS, res.ConcurrentWallMS, res.Speedup)
		fmt.Fprintf(out, "%d queries (h=%d, span %.2f): %d records, %d lookups, %d rounds — identical in both modes\n",
			res.Queries, res.Lookahead, res.Span, res.Records, res.Lookups, res.Rounds)
		fmt.Fprintf(out, "cached lookups: %.2f cold / %.2f warm probes per lookup (%d hits, %d misses, %d stale)\n",
			res.ColdProbesPerLookup, res.WarmProbesPerLookup, res.CacheHits, res.CacheMisses, res.CacheStale)
		if err := writeJSON(out, *jsonDir, "concurrency", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(concurrency took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["lookup"] {
		if *hopDelay <= 0 {
			return fmt.Errorf("-hopdelay must be positive, got %v (a zero-delay overlay would make the wall-clock comparison meaningless)", *hopDelay)
		}
		start := time.Now()
		fmt.Fprintln(out, "== Lookup: overlay lookup acceleration (beyond the paper) ==")
		lcfg := experiments.LookupConfig{Config: cfg, HopDelay: *hopDelay}
		if *quick {
			lcfg.Nodes = 16
			lcfg.Keys = 30
		}
		res, err := experiments.Lookup(lcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "per-Get p99: serial %.1fms lossless / %.1fms lossy, parallel %.1fms lossless / %.1fms lossy (max %d RPCs in flight)\n",
			res.SerialLossless.P99MS, res.SerialLossy.P99MS,
			res.ParallelLossless.P99MS, res.ParallelLossy.P99MS, res.ParallelMaxInFlight)
		if err := writeJSON(out, *jsonDir, "lookup", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(lookup took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["resilience"] {
		start := time.Now()
		fmt.Fprintln(out, "== Resilience: availability under message loss (beyond the paper) ==")
		rcfg := experiments.ResilienceConfig{Config: cfg}
		// The experiment's design point is a small ring: short routing
		// paths keep the injected loss, not path length, the dominant
		// failure cause. Loading goes through routed Chord calls, so the
		// section uses its own reduced data scale.
		rcfg.Peers = 24
		rcfg.DataSize = 4000
		if *quick {
			rcfg.DataSize = 2000
		}
		res, err := experiments.Resilience(rcfg)
		if err != nil {
			return err
		}
		if err := emit(res.Table()); err != nil {
			return err
		}
		for _, p := range res.Points {
			fmt.Fprintf(out, "drop %.2f: success %.1f%% with retry vs %.1f%% bare (%.2f attempts/op, %d recovered, %d exhausted)\n",
				p.DropRate, 100*p.SuccessWithRetry, 100*p.SuccessWithoutRetry,
				p.AttemptsPerOp, p.Recovered, p.Exhausted)
		}
		if err := writeJSON(out, *jsonDir, "resilience", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(resilience took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["ingest"] {
		if *hopDelay <= 0 {
			return fmt.Errorf("-hopdelay must be positive, got %v (a zero-delay network would make the wall-clock comparison meaningless)", *hopDelay)
		}
		start := time.Now()
		fmt.Fprintln(out, "== Ingest: wall-clock ingestion throughput (beyond the paper) ==")
		icfg := experiments.IngestConfig{Config: cfg, HopDelay: *hopDelay}
		// Same design point as the resilience section: a small ring keeps
		// routed path lengths short, and ingestion itself pays the modeled
		// delays, so the section uses its own reduced data scale.
		icfg.Peers = 24
		icfg.DataSize = 1200
		if *quick {
			icfg.DataSize = 600
		}
		res, err := experiments.Ingest(icfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d records over %d peers at %.1fms/hop → %d buckets, %d splits, %d records moved (identical for sequential and group-commit)\n",
			res.Records, res.Peers, res.HopDelayMS, res.Buckets, res.Splits, res.RecordsMoved)
		fmt.Fprintf(out, "sequential   %8.1fms  (%d DHT ops)\n", res.SequentialWallMS, res.SequentialLookups)
		fmt.Fprintf(out, "group-commit %8.1fms  (%d DHT ops) → %.2fx speedup\n",
			res.GroupCommitWallMS, res.GroupCommitLookups, res.GroupCommitSpeedup)
		fmt.Fprintf(out, "bulk-load    %8.1fms  (%d DHT ops) → %.2fx speedup\n",
			res.BulkLoadWallMS, res.BulkLoadLookups, res.BulkLoadSpeedup)
		if err := writeJSON(out, *jsonDir, "ingest", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(ingest took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["churn"] {
		start := time.Now()
		fmt.Fprintln(out, "== Churn: availability and recovery under membership churn (beyond the paper) ==")
		ccfg := experiments.ChurnExpConfig{Config: cfg}
		// Same design point as the resilience section: a small ring keeps
		// maintenance cost per round bounded and replication — not routing
		// depth — the variable under test.
		ccfg.Peers = 12
		ccfg.DataSize = 1500
		if *quick {
			ccfg.DataSize = 600
		}
		res, err := experiments.Churn(ccfg)
		if err != nil {
			return err
		}
		if err := emit(res.Table()); err != nil {
			return err
		}
		for _, p := range res.Points {
			fmt.Fprintf(out, "churn %.2f: success %.1f%% with retry vs %.1f%% bare (%dc/%dl/%dr/%dj, reconverged in %d rounds, intact=%v)\n",
				p.ChurnRate, 100*p.SuccessWithRetry, 100*p.SuccessWithoutRetry,
				p.Crashes, p.Leaves, p.Restarts, p.Joins, p.RecoveryRounds, p.FinalIntact)
		}
		for _, rp := range res.Recovery {
			fmt.Fprintf(out, "crash recovery (wal=%v): %d/%d records back in %.2fms, intact=%v\n",
				rp.WAL, rp.RecoveredRecords, rp.Records, rp.ReplayMS, rp.Intact)
		}
		if err := writeJSON(out, *jsonDir, "churn", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(churn took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["wire"] {
		start := time.Now()
		fmt.Fprintln(out, "== Wire: end-to-end latency over real sockets (beyond the paper) ==")
		wcfg := experiments.WireExpConfig{Config: cfg}
		wcfg.DataSize = 1000
		wcfg.Queries = 50
		if *quick {
			wcfg.DataSize = 300
			wcfg.Queries = 20
			wcfg.Echoes = 200
		}
		res, err := experiments.Wire(wcfg)
		if err != nil {
			return err
		}
		if err := emit(res.Table()); err != nil {
			return err
		}
		report := func(name string, l experiments.WireLatency) {
			fmt.Fprintf(out, "%s: %d ops, mean %.0fµs, p50 %.0fµs, p95 %.0fµs, p99 %.0fµs, worst %.0fµs\n",
				name, l.Ops, l.MeanUS, l.P50US, l.P95US, l.P99US, l.WorstUS)
		}
		report("raw RPC echo", res.Echo)
		report("insert", res.Insert)
		report("range query", res.Query)
		if err := writeJSON(out, *jsonDir, "wire", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(wire took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["scale"] {
		start := time.Now()
		fmt.Fprintln(out, "== Scale: 100k-peer overlay, 10M-record index in one process (beyond the paper) ==")
		scfg := experiments.ScaleConfig{
			Peers:      *scalePeers,
			DataSize:   *scaleRecords,
			ThetaSplit: *theta,
			MaxDepth:   *depth,
			Seed:       *seed,
		}
		if *quick {
			scfg.Peers = 10_000
			scfg.DataSize = 1_000_000
			scfg.LookupProbes = 500
		}
		res, err := experiments.Scale(scfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "overlay: %d peers bulk-built in %.0fms; %d routed lookups, mean %.2f hops, %.1fµs/op\n",
			res.Peers, res.OverlayBuildWallMS, res.LookupProbes, res.MeanRouteHops, res.LookupWallUSPerOp)
		fmt.Fprintf(out, "ingest:  %d records generated in %.0fms, bulk-loaded in %.0fms (%.0f records/ms) → %d buckets\n",
			res.Records, res.GenerateWallMS, res.IngestWallMS, res.IngestRecordsPerMS, res.Buckets)
		fmt.Fprintf(out, "queries: %d windows → %d records, %d DHT lookups, %.2fms/query\n",
			res.Queries, res.QueryRecords, res.QueryLookups, res.QueryWallMSPerOp)
		fmt.Fprintf(out, "gates:   simnet.Call %.1f allocs/op, Bucket.Append %.1f allocs/op\n",
			res.CallAllocsPerOp, res.AppendAllocsPerOp)
		fmt.Fprintf(out, "memory:  heap %.0f MiB, sys %.0f MiB, rss %.0f MiB\n",
			res.HeapAllocMiB, res.SysMiB, res.RSSMiB)
		if err := writeJSON(out, *jsonDir, "scale", res); err != nil {
			return err
		}
		fmt.Fprintf(out, "(scale took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if want["trace"] || *traceOut != "" || *traceTxt != "" {
		start := time.Now()
		if err := traceSection(cfg, out, *traceOut, *traceTxt); err != nil {
			return err
		}
		fmt.Fprintf(out, "(trace took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeJSON writes a section's machine-readable summary to
// <dir>/BENCH_<section>.json.
func writeJSON(out io.Writer, dir, section string, res any) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+section+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "(json written to %s)\n", path)
	return nil
}

// traceSection runs one instrumented range query over a routed Chord
// cluster — every stage from the query down to individual simulated network
// hops lands in the same collector — and exports the trace. MaxInFlight = 1
// keeps execution sequential so the artifact is reproducible.
func traceSection(cfg experiments.Config, out io.Writer, jsonPath, treePath string) error {
	fmt.Fprintln(out, "== Trace: one instrumented range query (beyond the paper) ==")
	ring, net, err := mlight.NewChordCluster(16, cfg.Seed)
	if err != nil {
		return err
	}
	tc := mlight.NewTraceCollector()
	ix, err := mlight.New(ring,
		mlight.WithCapacity(cfg.ThetaSplit),
		mlight.WithMergeThreshold(cfg.ThetaSplit/2),
		mlight.WithMaxInFlight(1),
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 3, Sleep: mlight.NoSleep}),
		mlight.WithTrace(tc),
	)
	if err != nil {
		return err
	}
	records := cfg.Records
	if records == nil {
		n := cfg.DataSize
		if n > 2000 {
			n = 2000 // the trace covers one query; a small routed load suffices
		}
		records = dataset.Generate(n, cfg.Seed)
	}
	for _, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return err
		}
	}
	net.SetTracer(tc) // attach after the bulk load: trace the query's hops only
	tc.Reset()

	q, err := mlight.NewRect(mlight.Point{0.3, 0.45}, mlight.Point{0.5, 0.65})
	if err != nil {
		return err
	}
	res, err := ix.RangeQuery(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "window [0.30,0.45]–[0.50,0.65] over %d records on 16 Chord peers:\n", len(records))
	fmt.Fprintf(out, "  %d records, %d DHT-lookups, %d rounds — %d spans recorded\n",
		len(res.Records), res.Lookups, res.Rounds, tc.Len())
	if err := tc.WriteSummary(out); err != nil {
		return err
	}
	if jsonPath != "" {
		var buf bytes.Buffer
		if err := tc.WriteTraceEvent(&buf); err != nil {
			return err
		}
		if err := trace.ValidateTraceEvent(buf.Bytes()); err != nil {
			return fmt.Errorf("exported trace fails its own schema: %w", err)
		}
		if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(chrome trace written to %s)\n", jsonPath)
	}
	if treePath != "" {
		var buf bytes.Buffer
		if err := tc.WriteTree(&buf); err != nil {
			return err
		}
		buf.WriteByte('\n')
		if err := tc.WriteSummary(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(treePath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(span tree written to %s)\n", treePath)
	}
	return nil
}
