package experiments

import (
	"fmt"
	"time"

	"mlight/internal/core"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

// ConcurrencyConfig parameterises the wall-clock concurrency experiment.
type ConcurrencyConfig struct {
	// Config supplies the shared knobs (data size, peers, θsplit, seed…).
	Config
	// HopDelay is the simulated one-way per-hop network delay each overlay
	// RPC pays in real time. Default 1ms.
	HopDelay time.Duration
	// Lookahead is the parallel query's h. Default 4.
	Lookahead int
	// MaxInFlight bounds the concurrent engine's worker pool. Default 16.
	MaxInFlight int
	// Span is the query rectangle's side length. Default 0.4.
	Span float64
	// Queries is how many rectangles each mode answers. Default 3.
	Queries int
	// CacheProbes is how many points the cached-lookup measurement probes
	// (each twice: cold, then warm). Default 16.
	CacheProbes int
}

func (c ConcurrencyConfig) withDefaults() ConcurrencyConfig {
	c.Config = c.Config.withDefaults()
	if c.HopDelay == 0 {
		c.HopDelay = time.Millisecond
	}
	if c.Lookahead == 0 {
		c.Lookahead = 4
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.Span == 0 {
		c.Span = 0.4
	}
	if c.Queries == 0 {
		c.Queries = 3
	}
	if c.CacheProbes == 0 {
		c.CacheProbes = 16
	}
	return c
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

// latencyIndex builds a Chord-backed index over a latency-bearing simnet.
// The overlay is joined and loaded with real delays suppressed (those phases
// issue thousands of RPCs); delays are enabled just before returning, so
// only the measured queries pay them.
func latencyIndex(cfg ConcurrencyConfig, maxInFlight, cacheSize int) (*core.Index, *simnet.Network, error) {
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(cfg.HopDelay)})
	ring, err := substrate.Cluster("chord", net, cfg.Peers, overlay.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: concurrency: %w", err)
	}
	t := cfg.tuning(cfg.ThetaSplit)
	t.MaxInFlight, t.CacheSize = maxInFlight, cacheSize
	ix, err := core.New(ring, t)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: concurrency index: %w", err)
	}
	for i, rec := range cfg.records() {
		if err := ix.Insert(rec); err != nil {
			return nil, nil, fmt.Errorf("experiments: concurrency insert #%d: %w", i, err)
		}
	}
	net.SetRealDelay(true)
	return ix, net, nil
}

// Concurrency measures what the concurrent execution engine buys in wall
// time: the same parallel range queries (lookahead h) run once over an index
// capped at MaxInFlight = 1 (sequential: probes pay their network delays
// back to back) and once at the configured MaxInFlight (probes of a round
// overlap). It also measures the leaf-label cache's cold-versus-warm lookup
// cost on the concurrent index.
func Concurrency(cfg ConcurrencyConfig) (ConcurrencyResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ConcurrencyResult{}, err
	}
	res := ConcurrencyResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		ThetaSplit:  cfg.ThetaSplit,
		HopDelayMS:  float64(cfg.HopDelay) / float64(time.Millisecond),
		Lookahead:   cfg.Lookahead,
		MaxInFlight: cfg.MaxInFlight,
		Span:        cfg.Span,
		Queries:     cfg.Queries,
	}

	seqIx, _, err := latencyIndex(cfg, 1, 0)
	if err != nil {
		return res, err
	}
	concIx, _, err := latencyIndex(cfg, cfg.MaxInFlight, 256)
	if err != nil {
		return res, err
	}

	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+100)
	if err != nil {
		return res, err
	}
	queries, err := gen.SpanBatch(cfg.Span, cfg.Queries)
	if err != nil {
		return res, err
	}

	run := func(ix *core.Index) (wall time.Duration, records, lookups, rounds int, results []*core.QueryResult, err error) {
		start := time.Now()
		for qi, q := range queries {
			r, qErr := ix.RangeQueryParallel(q, cfg.Lookahead)
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
	points := make([]spatial.Point, 0, cfg.CacheProbes)
	for i, rec := range cfg.records() {
		if i >= cfg.CacheProbes {
			break
		}
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
