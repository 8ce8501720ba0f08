package experiments

import (
	"testing"
	"time"
)

// TestLookupAcceleration runs the lookup experiment at a reduced scale and
// asserts the win BENCH_lookup.json must show: the α-parallel lookup beats
// the serial round on p99 wall clock under link loss.
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
		t.Logf("retrying after wall-clock outlier: parallel lossy p99 %.1fms vs serial %.1fms",
			res.ParallelLossy.P99MS, res.SerialLossy.P99MS)
		res = run()
	}
	t.Logf("overlay p99 ms: serial %.1f→%.1f lossy, parallel %.1f→%.1f lossy (in-flight %d)",
		res.SerialLossless.P99MS, res.SerialLossy.P99MS,
		res.ParallelLossless.P99MS, res.ParallelLossy.P99MS, res.ParallelMaxInFlight)
	if res.ParallelLossy.P99MS >= res.SerialLossy.P99MS {
		t.Errorf("parallel lossy p99 = %.2fms, want < serial %.2fms",
			res.ParallelLossy.P99MS, res.SerialLossy.P99MS)
	}
	if res.ParallelMaxInFlight < 2 {
		t.Errorf("parallel lookup never had ≥ 2 RPCs in flight (high-water %d)", res.ParallelMaxInFlight)
	}
}
