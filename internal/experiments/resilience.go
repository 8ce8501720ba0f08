package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

// ResilienceConfig parameterises the fault-tolerance experiment
// (ExtResilience): range-query availability and lookup overhead over a lossy
// Chord ring, with and without the dht.Resilient retry layer.
type ResilienceConfig struct {
	// Config supplies the shared knobs. Peers defaults to 24 here (a small
	// ring keeps routing paths short enough that per-query failure
	// probability is dominated by the injected loss, not by path length);
	// DataSize defaults to 4000.
	Config
	// DropRates is the message-loss sweep. Default {0, 0.02, 0.05, 0.1};
	// 0.05 is the acceptance point (≥ 99% success with retries).
	DropRates []float64
	// Lookahead is the parallel query's h. Default 2.
	Lookahead int
	// Span is the query rectangle's side length. Default 0.2.
	Span float64
	// Queries is how many rectangles are attempted per drop rate. Default 40.
	Queries int
	// MaxAttempts is the retry layer's per-operation attempt budget.
	// Default 8: a routed Get crosses several lossy links, so its
	// per-attempt failure probability is amplified well above the raw drop
	// rate, and a whole range query fails if any one of its dozens of
	// operations exhausts the budget.
	MaxAttempts int
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Peers == 0 {
		c.Peers = 24
	}
	if c.DataSize == 0 && len(c.Records) == 0 {
		c.DataSize = 4000
	}
	c.Config = c.Config.withDefaults()
	if len(c.DropRates) == 0 {
		c.DropRates = []float64{0, 0.02, 0.05, 0.1}
	}
	if c.Lookahead == 0 {
		c.Lookahead = 2
	}
	if c.Span == 0 {
		c.Span = 0.2
	}
	if c.Queries == 0 {
		c.Queries = 40
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	return c
}

// ResiliencePoint is one drop-rate sample of the sweep.
type ResiliencePoint struct {
	DropRate float64 `json:"drop_rate"`
	// SuccessWithRetry / SuccessWithoutRetry are the fractions of range
	// queries that completed without error on the retry-wrapped and bare
	// indexes.
	SuccessWithRetry    float64 `json:"success_with_retry"`
	SuccessWithoutRetry float64 `json:"success_without_retry"`
	// AttemptsPerOp is the retry index's physical substrate attempts per
	// logical DHT operation during this sweep point — the bandwidth price
	// of the absorbed failures (1.0 means no retries were needed).
	AttemptsPerOp float64 `json:"attempts_per_op"`
	// Retry-layer activity during this sweep point (retry index only).
	Retries      int64 `json:"retries"`
	Recovered    int64 `json:"recovered"`
	Exhausted    int64 `json:"exhausted"`
	BreakerTrips int64 `json:"breaker_trips"`
}

// ResilienceResult is the machine-readable outcome of the resilience
// experiment (written to BENCH_resilience.json by cmd/mlight-bench).
type ResilienceResult struct {
	DataSize    int     `json:"data_size"`
	Peers       int     `json:"peers"`
	ThetaSplit  int     `json:"theta_split"`
	Lookahead   int     `json:"lookahead"`
	Span        float64 `json:"span"`
	Queries     int     `json:"queries"`
	MaxAttempts int     `json:"max_attempts"`

	Points []ResiliencePoint `json:"points"`
}

// Table renders the sweep as the two availability curves.
func (r ResilienceResult) Table() Table {
	with := Series{Name: "m-LIGHT + retry layer"}
	without := Series{Name: "m-LIGHT bare"}
	overhead := Series{Name: "attempts per op (retry)"}
	for _, p := range r.Points {
		with.Points = append(with.Points, Point{X: p.DropRate, Y: p.SuccessWithRetry})
		without.Points = append(without.Points, Point{X: p.DropRate, Y: p.SuccessWithoutRetry})
		overhead.Points = append(overhead.Points, Point{X: p.DropRate, Y: p.AttemptsPerOp})
	}
	return Table{
		ID:     "ExtResilience",
		Title:  "Range-query availability under message loss",
		XLabel: "message drop rate",
		YLabel: "query success rate / attempts per op",
		Series: []Series{with, without, overhead},
	}
}

// resilienceIndex builds a Chord-backed index over a lossless simnet,
// returning the network so the caller can inject loss after loading.
func resilienceIndex(cfg ResilienceConfig, retry *dht.RetryPolicy) (*core.Index, *simnet.Network, error) {
	net := simnet.New(simnet.Options{Seed: cfg.Seed})
	ring, err := substrate.Cluster("chord", net, cfg.Peers, overlay.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: resilience: %w", err)
	}
	t := cfg.tuning(cfg.ThetaSplit)
	t.Retry = retry
	ix, err := core.New(ring, t)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: resilience index: %w", err)
	}
	for i, rec := range cfg.records() {
		if err := ix.Insert(rec); err != nil {
			return nil, nil, fmt.Errorf("experiments: resilience insert #%d: %w", i, err)
		}
	}
	return ix, net, nil
}

// Resilience measures what the retry layer buys in availability: the same
// range queries run over two identically built Chord-backed indexes — one
// wrapped in dht.Resilient, one bare — while the simulated network drops a
// sweep of message fractions. Both indexes are loaded losslessly first, so
// the sweep measures pure read-path availability; the overhead series
// reports the physical attempts the retry layer spent per logical operation.
func Resilience(cfg ResilienceConfig) (ResilienceResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ResilienceResult{}, err
	}
	res := ResilienceResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		ThetaSplit:  cfg.ThetaSplit,
		Lookahead:   cfg.Lookahead,
		Span:        cfg.Span,
		Queries:     cfg.Queries,
		MaxAttempts: cfg.MaxAttempts,
	}

	policy := &dht.RetryPolicy{
		MaxAttempts: cfg.MaxAttempts,
		Seed:        cfg.Seed,
		Sleep:       dht.NoSleep, // simnet fails synchronously; pay no real delays
	}
	withIx, withNet, err := resilienceIndex(cfg, policy)
	if err != nil {
		return res, err
	}
	bareIx, bareNet, err := resilienceIndex(cfg, nil)
	if err != nil {
		return res, err
	}

	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+200)
	if err != nil {
		return res, err
	}
	queries, err := gen.SpanBatch(cfg.Span, cfg.Queries)
	if err != nil {
		return res, err
	}

	run := func(ix *core.Index) int {
		ok := 0
		for _, q := range queries {
			if _, err := ix.RangeQueryParallel(q, cfg.Lookahead); err == nil {
				ok++
			}
		}
		return ok
	}

	stats := withIx.ResilienceStats()
	for _, rate := range cfg.DropRates {
		withNet.SetDropRate(rate)
		bareNet.SetDropRate(rate)
		before := stats.Snapshot()
		withOK := run(withIx)
		delta := stats.Snapshot().Sub(before)
		bareOK := run(bareIx)

		p := ResiliencePoint{
			DropRate:            rate,
			SuccessWithRetry:    float64(withOK) / float64(len(queries)),
			SuccessWithoutRetry: float64(bareOK) / float64(len(queries)),
			Retries:             delta.Retries,
			Recovered:           delta.Recovered,
			Exhausted:           delta.Exhausted,
			BreakerTrips:        delta.BreakerTrips,
		}
		if delta.Ops > 0 {
			p.AttemptsPerOp = float64(delta.Attempts) / float64(delta.Ops)
		}
		res.Points = append(res.Points, p)
	}
	// Leave both networks lossless again for any follow-on measurement.
	withNet.SetDropRate(0)
	bareNet.SetDropRate(0)
	return res, nil
}
