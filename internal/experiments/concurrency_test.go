package experiments

import (
	"testing"
	"time"
)

// TestConcurrencySpeedup runs the wall-clock concurrency experiment at a
// reduced scale and pins the engine's headline claims: identical accounting
// between execution modes (checked inside Concurrency — it errors on any
// divergence), at least a 2× wall-clock speedup from overlapping probes at
// 1ms per hop, and warm cached lookups completing in a single DHT probe.
func TestConcurrencySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment sleeps on real network delays")
	}
	cfg, err := concurrencyAt(Config{
		DataSize:   1500,
		Peers:      24,
		ThetaSplit: 50,
		Epsilon:    35,
		MaxDepth:   22,
		Seed:       1,
		HopDelay:   time.Millisecond,
	}, Full)
	if err != nil {
		t.Fatal(err)
	}
	cfg.queries = 2
	res, err := concurrency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Lookups == 0 || res.Rounds == 0 {
		t.Fatalf("empty accounting: %+v", res)
	}
	t.Logf("sequential %.1fms, concurrent %.1fms, speedup %.2fx (%d lookups, %d rounds); cold %.2f warm %.2f probes/lookup",
		res.SequentialWallMS, res.ConcurrentWallMS, res.Speedup, res.Lookups, res.Rounds,
		res.ColdProbesPerLookup, res.WarmProbesPerLookup)
	if res.Speedup < 2 {
		t.Errorf("speedup = %.2fx (sequential %.1fms, concurrent %.1fms), want ≥ 2x",
			res.Speedup, res.SequentialWallMS, res.ConcurrentWallMS)
	}
	if res.WarmProbesPerLookup > 1 {
		t.Errorf("warm cached lookups cost %.2f probes each, want ≤ 1", res.WarmProbesPerLookup)
	}
	if res.CacheStale != 0 {
		t.Errorf("static index produced %d stale cache hits", res.CacheStale)
	}
	if res.CacheHits == 0 {
		t.Error("cache never hit")
	}
}
