package experiments

import (
	"fmt"
	"time"

	"mlight/internal/dht"
	"mlight/internal/kademlia"
	"mlight/internal/metrics"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

// lookupParams is the section's configuration: the shared knobs (it reads
// Seed and HopDelay), the Kademlia overlay's size, and how many overlay Gets
// each (mode, loss) cell measures.
type lookupParams struct {
	Config
	nodes, keys int
}

// lookupDropRate is the link-loss probability of the lossy phase.
const lookupDropRate = 0.05

// lookupAt is the section's preset at scale under what cfg already sets.
func lookupAt(cfg Config, scale Scale) (lookupParams, error) {
	p := lookupParams{nodes: 24, keys: 80}
	if scale == Quick {
		p.nodes, p.keys = 16, 30
	}
	var err error
	p.Config, err = cfg.at(scale, Config{})
	return p, err
}

func lookupReport(res LookupResult) Report {
	return Report{Summary: res, Lines: []string{fmt.Sprintf(
		"per-Get p99: serial %.1fms lossless / %.1fms lossy, parallel %.1fms lossless / %.1fms lossy (max %d RPCs in flight)",
		res.SerialLossless.P99MS, res.SerialLossy.P99MS,
		res.ParallelLossless.P99MS, res.ParallelLossy.P99MS, res.ParallelMaxInFlight)}}
}

// LookupLatency is one measured per-Get wall-clock distribution.
type LookupLatency struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// LookupResult is the machine-readable outcome of the lookup experiment
// (written to BENCH_lookup.json by cmd/mlight-bench): the serial and the
// α-parallel iterative lookup compared on identical overlays (same simnet
// seed, same keys).
type LookupResult struct {
	// Configuration echo.
	OverlayNodes int     `json:"overlay_nodes"`
	HopDelayMS   float64 `json:"hop_delay_ms"`
	DropRate     float64 `json:"drop_rate"`
	Keys         int     `json:"keys"`

	// Per-Get wall-clock distributions: serial vs α-parallel, lossless and
	// under lookupDropRate link loss (retries via dht.Resilient in both modes).
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
}

// lookupOverlay builds a loss-free, delay-free Kademlia overlay, loads the
// measurement keys, and wraps it in the resilient retry layer. Real delays
// are enabled just before returning so only measured Gets pay them.
func lookupOverlay(cfg lookupParams, serial bool, keys []dht.Key) (*kademlia.Overlay, dht.DHT, *simnet.Network, error) {
	net := simnet.New(simnet.Options{
		Latency: simnet.ConstantLatency(cfg.HopDelay),
		Seed:    cfg.Seed,
	})
	o := kademlia.NewOverlay(net, kademlia.Config{
		Config: overlay.Config{Seed: cfg.Seed, Replication: 3},
		Serial: serial,
	})
	for i := 0; i < cfg.nodes; i++ {
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

// lookup measures the α-parallel iterative Kademlia lookup against the
// serial one-RPC-at-a-time round it replaced: per-Get wall clock, lossless
// and under link loss.
func lookup(cfg lookupParams) (LookupResult, error) {
	res := LookupResult{
		OverlayNodes: cfg.nodes,
		HopDelayMS:   float64(cfg.HopDelay) / float64(time.Millisecond),
		DropRate:     lookupDropRate,
		Keys:         cfg.keys,
	}

	keys := make([]dht.Key, cfg.keys)
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
		net.SetDropRate(lookupDropRate)
		if *m.lossy, err = measureGets(d, keys); err != nil {
			return res, err
		}
		*m.timeouts = kademlia.RoutingOf(o).LookupTimeouts.Load()
		if !m.serial {
			res.ParallelMaxInFlight = kademlia.RoutingOf(o).LookupInFlight.Load()
		}
	}
	return res, nil
}
