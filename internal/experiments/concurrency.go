package experiments

import (
	"fmt"
	"time"

	"mlight/internal/core"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/workload"
)

// concurrencyParams is the section's configuration: the shared knobs plus
// how many rectangles each mode answers.
type concurrencyParams struct {
	Config
	queries int
}

// The query shape is fixed: the parallel query's h, the concurrent engine's
// worker pool, the rectangle's side length, and how many points the
// cached-lookup measurement probes (each twice: cold, then warm).
const (
	concurrencyLookahead   = 4
	concurrencyMaxInFlight = 16
	concurrencySpan        = 0.4
	concurrencyCacheProbes = 16
)

// concurrencyAt is the section's preset at scale under what cfg already sets.
func concurrencyAt(cfg Config, scale Scale) (concurrencyParams, error) {
	p := concurrencyParams{queries: 3}
	if scale == Quick {
		p.DataSize = 2000
	}
	var err error
	p.Config, err = cfg.at(scale, p.Config)
	return p, err
}

func concurrencyReport(res ConcurrencyResult) Report {
	return Report{Summary: res, Lines: []string{
		fmt.Sprintf("sequential %.1fms, concurrent %.1fms → %.2fx speedup",
			res.SequentialWallMS, res.ConcurrentWallMS, res.Speedup),
		fmt.Sprintf("%d queries (h=%d, span %.2f): %d records, %d lookups, %d rounds — identical in both modes",
			res.Queries, res.Lookahead, res.Span, res.Records, res.Lookups, res.Rounds),
		fmt.Sprintf("cached lookups: %.2f cold / %.2f warm probes per lookup (%d hits, %d misses, %d stale)",
			res.ColdProbesPerLookup, res.WarmProbesPerLookup, res.CacheHits, res.CacheMisses, res.CacheStale),
	}}
}

// ConcurrencyResult is the machine-readable outcome of one concurrency
// experiment (written to BENCH_concurrency.json by cmd/mlight-bench).
// Sequential and concurrent runs execute the same queries over identically
// built indexes; the experiment fails if their Records, Lookups, or Rounds
// diverge, so the wall-clock comparison is apples to apples by construction.
type ConcurrencyResult struct {
	// Configuration echo.
	DataSize    int     `json:"data_size"`
	Peers       int     `json:"peers"`
	ThetaSplit  int     `json:"theta_split"`
	HopDelayMS  float64 `json:"hop_delay_ms"`
	Lookahead   int     `json:"lookahead"`
	MaxInFlight int     `json:"max_in_flight"`
	Span        float64 `json:"span"`
	Queries     int     `json:"queries"`

	// Identical accounting across both execution modes (totals over all
	// queries), verified per query before reporting.
	Records int `json:"records"`
	Lookups int `json:"lookups"`
	Rounds  int `json:"rounds"`

	// Wall-clock totals over all queries, and their ratio.
	SequentialWallMS float64 `json:"sequential_wall_ms"`
	ConcurrentWallMS float64 `json:"concurrent_wall_ms"`
	Speedup          float64 `json:"speedup"`

	// Leaf-label cache measurement on the concurrent index: mean DHT
	// probes for first (cold) and repeat (warm) lookups of the same points,
	// plus the cache counters after the run. Warm lookups on an unchanged
	// index verify the cached leaf with a single probe.
	ColdProbesPerLookup float64 `json:"cold_probes_per_lookup"`
	WarmProbesPerLookup float64 `json:"warm_probes_per_lookup"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	CacheStale          int64   `json:"cache_stale"`
}

// latencyIndex deploys an index over a latency-bearing simnet. The overlay is
// joined and loaded with real delays suppressed (those phases issue thousands
// of RPCs); delays are enabled just before returning, so only the measured
// queries pay them.
func latencyIndex(cfg Config, maxInFlight, cacheSize int) (*core.Index, error) {
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(cfg.HopDelay)})
	t := cfg.tuning(cfg.ThetaSplit)
	t.MaxInFlight, t.CacheSize = maxInFlight, cacheSize
	_, ix, err := deploy(net, cfg.Peers, overlay.Config{Seed: cfg.Seed}, t, cfg.records())
	net.SetRealDelay(true)
	return ix, err
}

// concurrency measures what the concurrent execution engine buys in wall
// time: the same parallel range queries (lookahead h) run once over an index
// capped at MaxInFlight = 1 (sequential: probes pay their network delays
// back to back) and once at concurrencyMaxInFlight (probes of a round
// overlap). It also measures the leaf-label cache's cold-versus-warm lookup
// cost on the concurrent index.
func concurrency(cfg concurrencyParams) (ConcurrencyResult, error) {
	res := ConcurrencyResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		ThetaSplit:  cfg.ThetaSplit,
		HopDelayMS:  float64(cfg.HopDelay) / float64(time.Millisecond),
		Lookahead:   concurrencyLookahead,
		MaxInFlight: concurrencyMaxInFlight,
		Span:        concurrencySpan,
		Queries:     cfg.queries,
	}

	seqIx, err := latencyIndex(cfg.Config, 1, 0)
	if err != nil {
		return res, err
	}
	concIx, err := latencyIndex(cfg.Config, concurrencyMaxInFlight, 256)
	if err != nil {
		return res, err
	}

	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+100)
	if err != nil {
		return res, err
	}
	queries, err := gen.SpanBatch(concurrencySpan, cfg.queries)
	if err != nil {
		return res, err
	}

	run := func(ix *core.Index) (wall time.Duration, records, lookups, rounds int, results []*core.QueryResult, err error) {
		start := time.Now()
		for qi, q := range queries {
			r, qErr := ix.RangeQueryParallel(q, concurrencyLookahead)
			if qErr != nil {
				return 0, 0, 0, 0, nil, fmt.Errorf("experiments: concurrency query #%d: %w", qi, qErr)
			}
			records += len(r.Records)
			lookups += r.Lookups
			rounds += r.Rounds
			results = append(results, r)
		}
		return time.Since(start), records, lookups, rounds, results, nil
	}

	seqWall, seqRecords, seqLookups, seqRounds, seqResults, err := run(seqIx)
	if err != nil {
		return res, err
	}
	concWall, _, _, _, concResults, err := run(concIx)
	if err != nil {
		return res, err
	}
	for qi := range queries {
		a, b := seqResults[qi], concResults[qi]
		if len(a.Records) != len(b.Records) || a.Lookups != b.Lookups || a.Rounds != b.Rounds {
			return res, fmt.Errorf(
				"experiments: concurrency query #%d diverged: sequential (n=%d L=%d R=%d) vs concurrent (n=%d L=%d R=%d)",
				qi, len(a.Records), a.Lookups, a.Rounds, len(b.Records), b.Lookups, b.Rounds)
		}
	}
	res.Records, res.Lookups, res.Rounds = seqRecords, seqLookups, seqRounds
	res.SequentialWallMS = float64(seqWall) / float64(time.Millisecond)
	res.ConcurrentWallMS = float64(concWall) / float64(time.Millisecond)
	if concWall > 0 {
		res.Speedup = float64(seqWall) / float64(concWall)
	}

	// Cold/warm cached lookups: probe points drawn from the indexed data so
	// every lookup resolves to a real leaf.
	var points []spatial.Point
	records := cfg.records()
	for _, rec := range records[:min(concurrencyCacheProbes, len(records))] {
		points = append(points, rec.Key)
	}
	before := concIx.Stats()
	cold, warm := 0, 0
	for _, p := range points {
		_, trace, err := concIx.LookupTraced(p)
		if err != nil {
			return res, fmt.Errorf("experiments: concurrency cold lookup: %w", err)
		}
		cold += trace.Probes
	}
	for _, p := range points {
		_, trace, err := concIx.LookupTraced(p)
		if err != nil {
			return res, fmt.Errorf("experiments: concurrency warm lookup: %w", err)
		}
		warm += trace.Probes
	}
	delta := concIx.Stats().Sub(before)
	res.ColdProbesPerLookup = float64(cold) / float64(len(points))
	res.WarmProbesPerLookup = float64(warm) / float64(len(points))
	res.CacheHits = delta.CacheHits
	res.CacheMisses = delta.CacheMisses
	res.CacheStale = delta.CacheStale
	return res, nil
}
