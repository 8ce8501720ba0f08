package experiments

import (
	"fmt"
	"sort"
	"time"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/kademlia"
	"mlight/internal/metrics"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/workload"
)

// LookupConfig parameterises the overlay-lookup acceleration experiment.
type LookupConfig struct {
	// Config supplies the shared knobs (data size, θsplit, seed…).
	Config
	// HopDelay is the simulated one-way network delay each overlay RPC pays
	// in real time during the measured phases. Default 1ms.
	HopDelay time.Duration
	// DropRate is the link-loss probability of the lossy measurement phase.
	// Default 0.05.
	DropRate float64
	// Nodes is the Kademlia overlay's size. Default 24.
	Nodes int
	// Keys is how many overlay Gets each (mode, loss) cell measures.
	// Default 80.
	Keys int
	// Span is the range-query rectangle's side length for the dissemination
	// comparison; large spans are where multicast pays. Default 0.4.
	Span float64
	// RangeQueries is how many rectangles each dissemination mode answers.
	// Default 4.
	RangeQueries int
	// Lookahead is the blind speculation depth h of the dissemination
	// baseline. Default 4.
	Lookahead int
}

func (c LookupConfig) withDefaults() LookupConfig {
	c.Config = c.Config.withDefaults()
	if c.HopDelay == 0 {
		c.HopDelay = time.Millisecond
	}
	if c.DropRate == 0 {
		c.DropRate = 0.05
	}
	if c.Nodes == 0 {
		c.Nodes = 24
	}
	if c.Keys == 0 {
		c.Keys = 80
	}
	if c.Span == 0 {
		c.Span = 0.4
	}
	if c.RangeQueries == 0 {
		c.RangeQueries = 4
	}
	if c.Lookahead == 0 {
		c.Lookahead = 4
	}
	return c
}

// LookupLatency is one measured per-Get wall-clock distribution.
type LookupLatency struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// LookupResult is the machine-readable outcome of the lookup experiment
// (written to BENCH_lookup.json by cmd/mlight-bench). The first half
// compares the serial and α-parallel iterative lookup on identical overlays
// (same simnet seed, same keys); the second half compares prefix-multicast
// range dissemination against blind h-level lookahead on identically loaded
// indexes, after verifying per query that both return the same record set.
type LookupResult struct {
	// Configuration echo.
	OverlayNodes int     `json:"overlay_nodes"`
	HopDelayMS   float64 `json:"hop_delay_ms"`
	DropRate     float64 `json:"drop_rate"`
	Keys         int     `json:"keys"`

	// Per-Get wall-clock distributions: serial vs α-parallel, lossless and
	// under DropRate link loss (retries via dht.Resilient in both modes).
	SerialLossless   LookupLatency `json:"serial_lossless"`
	ParallelLossless LookupLatency `json:"parallel_lossless"`
	SerialLossy      LookupLatency `json:"serial_lossy"`
	ParallelLossy    LookupLatency `json:"parallel_lossy"`
	// ParallelMaxInFlight is the high-water mark of concurrently
	// outstanding FIND_NODE RPCs in the parallel overlay (> 1 shows the
	// α-batches genuinely overlapped).
	ParallelMaxInFlight int64 `json:"parallel_max_in_flight"`
	// Timeouts counts overlay RPCs cut off by the adaptive deadline, per
	// mode, across both measurement phases.
	SerialTimeouts   int64 `json:"serial_timeouts"`
	ParallelTimeouts int64 `json:"parallel_timeouts"`

	// Dissemination comparison at the configured span (totals over
	// RangeQueries queries; record sets verified identical per query).
	DataSize         int     `json:"data_size"`
	Span             float64 `json:"span"`
	RangeQueries     int     `json:"range_queries"`
	Lookahead        int     `json:"lookahead"`
	RangeRecords     int     `json:"range_records"`
	MulticastLookups int     `json:"multicast_lookups"`
	MulticastRounds  int     `json:"multicast_rounds"`
	LookaheadLookups int     `json:"lookahead_lookups"`
	LookaheadRounds  int     `json:"lookahead_rounds"`
	MulticastSplits  int64   `json:"multicast_splits"`
	MulticastPieces  int64   `json:"multicast_pieces"`
	MulticastDepth   int64   `json:"multicast_depth"`
}

// lookupOverlay builds a loss-free, delay-free Kademlia overlay, loads the
// measurement keys, and wraps it in the resilient retry layer. Real delays
// are enabled just before returning so only measured Gets pay them.
func lookupOverlay(cfg LookupConfig, serial bool, keys []dht.Key) (*kademlia.Overlay, dht.DHT, *simnet.Network, error) {
	net := simnet.New(simnet.Options{
		Latency: simnet.ConstantLatency(cfg.HopDelay),
		Seed:    cfg.Seed,
	})
	o := kademlia.NewOverlay(net, kademlia.Config{
		Config: overlay.Config{Seed: cfg.Seed, Replication: 3},
		Serial: serial,
	})
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			return nil, nil, nil, fmt.Errorf("experiments: lookup overlay: %w", err)
		}
	}
	o.Stabilize(2)
	for i, k := range keys {
		if err := o.Put(k, i); err != nil {
			return nil, nil, nil, fmt.Errorf("experiments: lookup preload %q: %w", k, err)
		}
	}
	res := dht.NewResilient(o, dht.RetryPolicy{
		MaxAttempts: 8,
		Sleep:       dht.NoSleep,
		Seed:        cfg.Seed,
	}, nil)
	net.SetRealDelay(true)
	return o, res, net, nil
}

// measureGets times each key's Get individually and returns the p50/p99 of
// the per-Get wall clock.
func measureGets(d dht.DHT, keys []dht.Key) (LookupLatency, error) {
	samples := make([]float64, 0, len(keys))
	for i, k := range keys {
		start := time.Now()
		v, ok, err := d.Get(k)
		wall := time.Since(start)
		if err != nil {
			return LookupLatency{}, fmt.Errorf("experiments: lookup Get(%q): %w", k, err)
		}
		if !ok || v != i {
			return LookupLatency{}, fmt.Errorf("experiments: lookup Get(%q) = %v, %v; want %d", k, v, ok, i)
		}
		samples = append(samples, float64(wall)/float64(time.Millisecond))
	}
	return LookupLatency{
		P50MS: metrics.Quantile(samples, 0.50),
		P99MS: metrics.Quantile(samples, 0.99),
	}, nil
}

// sortedRecordSet orders records by (Data, Key) so two result sets compare
// positionally regardless of piece scheduling order.
func sortedRecordSet(recs []spatial.Record) []spatial.Record {
	out := append([]spatial.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Data != out[j].Data {
			return out[i].Data < out[j].Data
		}
		a, b := out[i].Key, out[j].Key
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	return out
}

func sameRecordSet(a, b []spatial.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Data != b[i].Data || len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for d := range a[i].Key {
			if a[i].Key[d] != b[i].Key[d] {
				return false
			}
		}
	}
	return true
}

// Lookup measures the two overlay accelerations of this repository against
// the baselines they replaced: the α-parallel iterative Kademlia lookup
// against the serial one-RPC-at-a-time round (per-Get wall clock, lossless
// and under link loss), and prefix-multicast range dissemination against
// blind h-level lookahead (DHT-lookups and rounds at a large span).
func Lookup(cfg LookupConfig) (LookupResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return LookupResult{}, err
	}
	res := LookupResult{
		OverlayNodes: cfg.Nodes,
		HopDelayMS:   float64(cfg.HopDelay) / float64(time.Millisecond),
		DropRate:     cfg.DropRate,
		Keys:         cfg.Keys,
		DataSize:     cfg.DataSize,
		Span:         cfg.Span,
		RangeQueries: cfg.RangeQueries,
		Lookahead:    cfg.Lookahead,
	}

	keys := make([]dht.Key, cfg.Keys)
	for i := range keys {
		keys[i] = dht.Key(fmt.Sprintf("lookup-key-%d", i))
	}
	type mode struct {
		serial   bool
		lossless *LookupLatency
		lossy    *LookupLatency
		timeouts *int64
	}
	modes := []mode{
		{true, &res.SerialLossless, &res.SerialLossy, &res.SerialTimeouts},
		{false, &res.ParallelLossless, &res.ParallelLossy, &res.ParallelTimeouts},
	}
	for _, m := range modes {
		o, d, net, err := lookupOverlay(cfg, m.serial, keys)
		if err != nil {
			return res, err
		}
		if *m.lossless, err = measureGets(d, keys); err != nil {
			return res, err
		}
		net.SetDropRate(cfg.DropRate)
		if *m.lossy, err = measureGets(d, keys); err != nil {
			return res, err
		}
		*m.timeouts = kademlia.RoutingOf(o).LookupTimeouts.Load()
		if !m.serial {
			res.ParallelMaxInFlight = kademlia.RoutingOf(o).LookupInFlight.Load()
		}
	}

	// Dissemination comparison: identically loaded local-substrate indexes,
	// multicast versus blind lookahead, with a per-query record-set
	// equivalence gate.
	build := func(multicast bool) (*core.Index, error) {
		ix, err := core.New(dht.MustNewLocal(16), core.Options{
			Dims:       cfg.Dims,
			MaxDepth:   cfg.MaxDepth,
			ThetaSplit: cfg.ThetaSplit,
			ThetaMerge: cfg.ThetaSplit / 2,
			Multicast:  multicast,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: lookup index: %w", err)
		}
		for i, rec := range cfg.records() {
			if err := ix.Insert(rec); err != nil {
				return nil, fmt.Errorf("experiments: lookup insert #%d: %w", i, err)
			}
		}
		return ix, nil
	}
	ixMulti, err := build(true)
	if err != nil {
		return res, err
	}
	ixBase, err := build(false)
	if err != nil {
		return res, err
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+200)
	if err != nil {
		return res, err
	}
	rects, err := gen.SpanBatch(cfg.Span, cfg.RangeQueries)
	if err != nil {
		return res, err
	}
	before := ixMulti.Stats()
	for qi, q := range rects {
		mc, err := ixMulti.RangeQuery(q)
		if err != nil {
			return res, fmt.Errorf("experiments: multicast query #%d: %w", qi, err)
		}
		base, err := ixBase.RangeQueryParallel(q, cfg.Lookahead)
		if err != nil {
			return res, fmt.Errorf("experiments: lookahead query #%d: %w", qi, err)
		}
		if !sameRecordSet(sortedRecordSet(mc.Records), sortedRecordSet(base.Records)) {
			return res, fmt.Errorf(
				"experiments: dissemination query #%d diverged: multicast %d records, lookahead %d",
				qi, len(mc.Records), len(base.Records))
		}
		res.RangeRecords += len(mc.Records)
		res.MulticastLookups += mc.Lookups
		res.MulticastRounds += mc.Rounds
		res.LookaheadLookups += base.Lookups
		res.LookaheadRounds += base.Rounds
	}
	delta := ixMulti.Stats().Sub(before)
	res.MulticastSplits = delta.MulticastSplits
	res.MulticastPieces = delta.MulticastPieces
	res.MulticastDepth = delta.MulticastDepth
	return res, nil
}
