package experiments

import (
	"testing"
	"time"
)

// TestLookupAcceleration runs the lookup experiment at a reduced scale and
// asserts the win BENCH_lookup.json must show: under link loss the
// α-parallel lookup's p99 wall clock beats the p99 of the same Gets' summed
// round trips, the time a one-RPC-at-a-time lookup would take.
func TestLookupAcceleration(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment sleeps on real network delays")
	}
	run := func() LookupResult {
		cfg, err := lookupAt(Config{Seed: 1, HopDelay: time.Millisecond}, Quick)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lookup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.ParallelLossy.P99MS >= res.SerialLossy.P99MS {
		// p99 over 30 Gets is the worst sample; one scheduler hiccup on a
		// loaded machine can spike it, so a wall-clock miss earns one retry.
		t.Logf("retrying after wall-clock outlier: lossy p99 wall clock %.1fms vs summed RTT %.1fms",
			res.ParallelLossy.P99MS, res.SerialLossy.P99MS)
		res = run()
	}
	t.Logf("overlay p99 ms: summed RTT %.1f→%.1f lossy, wall clock %.1f→%.1f lossy (in-flight %d)",
		res.SerialLossless.P99MS, res.SerialLossy.P99MS,
		res.ParallelLossless.P99MS, res.ParallelLossy.P99MS, res.ParallelMaxInFlight)
	if res.ParallelLossy.P99MS >= res.SerialLossy.P99MS {
		t.Errorf("lossy p99 wall clock = %.2fms, want < summed RTT %.2fms",
			res.ParallelLossy.P99MS, res.SerialLossy.P99MS)
	}
	if res.ParallelMaxInFlight < 2 {
		t.Errorf("parallel lookup never had ≥ 2 RPCs in flight (high-water %d)", res.ParallelMaxInFlight)
	}
}
