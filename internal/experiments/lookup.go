package experiments

import (
	"fmt"
	"time"

	"mlight/internal/dht"
	"mlight/internal/kademlia"
	"mlight/internal/metrics"
	"mlight/internal/simnet"
)

// lookupParams is the section's configuration: the shared knobs (it reads
// Seed and HopDelay), the Kademlia overlay's size, and how many overlay Gets
// each phase, lossless and lossy, measures.
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
		"per-Get p99: summed RTT %.1fms lossless / %.1fms lossy, wall clock %.1fms lossless / %.1fms lossy (max %d RPCs in flight)",
		res.SerialLossless.P99MS, res.SerialLossy.P99MS,
		res.ParallelLossless.P99MS, res.ParallelLossy.P99MS, res.ParallelMaxInFlight)}}
}

// LookupLatency is one per-Get latency distribution.
type LookupLatency struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// LookupResult is the machine-readable outcome of the lookup experiment
// (written to BENCH_lookup.json by cmd/mlight-bench): the α-parallel
// iterative lookup's measured wall clock beside the one-RPC-at-a-time time
// of the same Gets.
type LookupResult struct {
	// Configuration echo.
	OverlayNodes int     `json:"overlay_nodes"`
	HopDelayMS   float64 `json:"hop_delay_ms"`
	DropRate     float64 `json:"drop_rate"`
	Keys         int     `json:"keys"`

	// Per-Get distributions, lossless and under lookupDropRate link loss
	// (retries via dht.Resilient). Serial is the sum of the round trips
	// each Get's delivered RPCs took (simnet.SimulatedRTT), which is what a
	// lookup sending one RPC at a time sleeps through; Parallel is the
	// measured wall clock of the same Gets.
	SerialLossless   LookupLatency `json:"serial_lossless"`
	ParallelLossless LookupLatency `json:"parallel_lossless"`
	SerialLossy      LookupLatency `json:"serial_lossy"`
	ParallelLossy    LookupLatency `json:"parallel_lossy"`
	// ParallelMaxInFlight is the high-water mark of concurrently
	// outstanding FIND_NODE RPCs (> 1 shows the α-batches genuinely
	// overlapped).
	ParallelMaxInFlight int64 `json:"parallel_max_in_flight"`
	// ParallelTimeouts counts overlay RPCs cut off by the adaptive deadline
	// across both measurement phases.
	ParallelTimeouts int64 `json:"parallel_timeouts"`
}

// lookupOverlay builds a loss-free, delay-free Kademlia overlay, loads the
// measurement keys, and wraps it in the resilient retry layer. Real delays
// are enabled just before returning so only measured Gets pay them.
func lookupOverlay(cfg lookupParams, keys []dht.Key) (*kademlia.Overlay, dht.DHT, *simnet.Network, error) {
	net := simnet.New(simnet.Options{
		Latency: simnet.ConstantLatency(cfg.HopDelay),
		Seed:    cfg.Seed,
	})
	o := kademlia.NewOverlay(net, kademlia.Config{Seed: cfg.Seed, Replication: 3})
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

// measureGets runs each key's Get and returns the p50/p99 of its summed
// round trips (the change in net's SimulatedRTT) and of its wall clock.
func measureGets(d dht.DHT, net *simnet.Network, keys []dht.Key) (serial, wall LookupLatency, err error) {
	summed := make([]float64, 0, len(keys))
	walls := make([]float64, 0, len(keys))
	for i, k := range keys {
		rtt0, start := net.SimulatedRTT(), time.Now()
		v, ok, err := d.Get(k)
		took, rtt := time.Since(start), net.SimulatedRTT()-rtt0
		if err != nil {
			return serial, wall, fmt.Errorf("experiments: lookup Get(%q): %w", k, err)
		}
		if !ok || v != i {
			return serial, wall, fmt.Errorf("experiments: lookup Get(%q) = %v, %v; want %d", k, v, ok, i)
		}
		summed = append(summed, float64(rtt)/float64(time.Millisecond))
		walls = append(walls, float64(took)/float64(time.Millisecond))
	}
	quantiles := func(ms []float64) LookupLatency {
		return LookupLatency{P50MS: metrics.Quantile(ms, 0.50), P99MS: metrics.Quantile(ms, 0.99)}
	}
	return quantiles(summed), quantiles(walls), nil
}

// lookup measures the α-parallel iterative Kademlia lookup's per-Get wall
// clock against the summed round trips of the same Gets, lossless and under
// link loss.
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
	o, d, net, err := lookupOverlay(cfg, keys)
	if err != nil {
		return res, err
	}
	if res.SerialLossless, res.ParallelLossless, err = measureGets(d, net, keys); err != nil {
		return res, err
	}
	net.SetDropRate(lookupDropRate)
	if res.SerialLossy, res.ParallelLossy, err = measureGets(d, net, keys); err != nil {
		return res, err
	}
	res.ParallelTimeouts = kademlia.RoutingOf(o).LookupTimeouts.Load()
	res.ParallelMaxInFlight = kademlia.RoutingOf(o).LookupInFlight.Load()
	return res, nil
}
