package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/workload"
)

// resilienceParams is the section's configuration (ExtResilience): the
// shared knobs, the message-loss sweep, and how many rectangles are attempted
// per drop rate.
type resilienceParams struct {
	Config
	dropRates []float64
	queries   int
}

// The query shape is fixed: the parallel query's h, the rectangle's side
// length, and the retry layer's per-operation attempt budget — 8, because a
// routed Get crosses several lossy links, so its per-attempt failure
// probability is amplified well above the raw drop rate, and a whole range
// query fails if any one of its dozens of operations exhausts the budget.
const (
	resilienceLookahead   = 2
	resilienceSpan        = 0.2
	resilienceMaxAttempts = 8
)

// resilienceAt is the section's preset at scale under what cfg already sets.
// The design point is a small ring: short routing paths keep the injected
// loss, not path length, the dominant failure cause. Loading goes through
// routed Chord calls, so the data scale is reduced too. 0.05 is the
// acceptance point of the sweep (≥ 99% success with retries).
func resilienceAt(cfg Config, scale Scale) (resilienceParams, error) {
	p := resilienceParams{
		Config:    Config{Peers: 24, DataSize: 4000},
		dropRates: []float64{0, 0.02, 0.05, 0.1},
		queries:   40,
	}
	if scale == Quick {
		p.DataSize = 2000
	}
	var err error
	p.Config, err = cfg.at(scale, p.Config)
	return p, err
}

func resilienceReport(res ResilienceResult) Report {
	rep := Report{Tables: []Table{res.Table()}, Summary: res}
	for _, pt := range res.Points {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"drop %.2f: success %.1f%% with retry vs %.1f%% bare (%.2f attempts/op, %d recovered, %d exhausted)",
			pt.DropRate, 100*pt.SuccessWithRetry, 100*pt.SuccessWithoutRetry,
			pt.AttemptsPerOp, pt.Recovered, pt.Exhausted))
	}
	return rep
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

// resilienceIndex deploys an index over a lossless simnet, returning the
// network so the caller can inject loss after loading. Its probes go one at a
// time, so the network's loss draws follow query order, not goroutine
// scheduling, and the sweep depends only on its seed.
func resilienceIndex(cfg Config, retry *dht.RetryPolicy) (*core.Index, *simnet.Network, error) {
	net := simnet.New(simnet.Options{Seed: cfg.Seed})
	t := cfg.tuning(cfg.ThetaSplit)
	t.Retry = retry
	t.MaxInFlight = 1
	_, ix, err := deploy(net, cfg.Peers, overlay.Config{Seed: cfg.Seed}, t, cfg.records())
	return ix, net, err
}

// resilience measures what the retry layer buys in availability: the same
// range queries run over two identically built Chord-backed indexes — one
// wrapped in dht.Resilient, one bare — while the simulated network drops a
// sweep of message fractions. Both indexes are loaded losslessly first, so
// the sweep measures pure read-path availability; the overhead series
// reports the physical attempts the retry layer spent per logical operation.
func resilience(cfg resilienceParams) (ResilienceResult, error) {
	res := ResilienceResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		ThetaSplit:  cfg.ThetaSplit,
		Lookahead:   resilienceLookahead,
		Span:        resilienceSpan,
		Queries:     cfg.queries,
		MaxAttempts: resilienceMaxAttempts,
	}

	policy := &dht.RetryPolicy{
		MaxAttempts: resilienceMaxAttempts,
		Seed:        cfg.Seed,
		Sleep:       dht.NoSleep, // simnet fails synchronously; pay no real delays
	}
	withIx, withNet, err := resilienceIndex(cfg.Config, policy)
	if err != nil {
		return res, err
	}
	bareIx, bareNet, err := resilienceIndex(cfg.Config, nil)
	if err != nil {
		return res, err
	}

	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+200)
	if err != nil {
		return res, err
	}
	queries, err := gen.SpanBatch(resilienceSpan, cfg.queries)
	if err != nil {
		return res, err
	}

	run := func(ix *core.Index) int {
		ok := 0
		for _, q := range queries {
			if _, err := ix.RangeQueryParallel(q, resilienceLookahead); err == nil {
				ok++
			}
		}
		return ok
	}

	stats := withIx.ResilienceStats()
	for _, rate := range cfg.dropRates {
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
