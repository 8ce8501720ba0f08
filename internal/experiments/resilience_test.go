package experiments

import "testing"

// TestResilienceAcceptance pins the PR's availability criterion: at a 5%
// message drop rate on a Chord ring, range queries through the retry layer
// succeed ≥ 99% of the time, while the bare index is materially worse; the
// retry layer pays for that with measurable extra attempts.
func TestResilienceAcceptance(t *testing.T) {
	cfg, err := resilienceAt(Config{DataSize: 1500, Seed: 1}, Full)
	if err != nil {
		t.Fatal(err)
	}
	cfg.dropRates, cfg.queries = []float64{0, 0.05}, 30
	res, err := resilience(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d sweep points, want 2", len(res.Points))
	}

	clean := res.Points[0]
	if clean.SuccessWithRetry != 1 || clean.SuccessWithoutRetry != 1 {
		t.Errorf("lossless point: success %.3f/%.3f, want 1/1",
			clean.SuccessWithRetry, clean.SuccessWithoutRetry)
	}
	if clean.Retries != 0 {
		t.Errorf("lossless point spent %d retries, want 0", clean.Retries)
	}

	lossy := res.Points[1]
	if lossy.SuccessWithRetry < 0.99 {
		t.Errorf("at drop 0.05: success with retry = %.3f, want ≥ 0.99", lossy.SuccessWithRetry)
	}
	if lossy.SuccessWithoutRetry > 0.5 {
		t.Errorf("at drop 0.05: bare success = %.3f, expected materially degraded (≤ 0.5)",
			lossy.SuccessWithoutRetry)
	}
	if lossy.Retries == 0 || lossy.Recovered == 0 {
		t.Errorf("at drop 0.05: retries %d recovered %d, want both > 0",
			lossy.Retries, lossy.Recovered)
	}
	if lossy.AttemptsPerOp <= 1 {
		t.Errorf("at drop 0.05: attempts/op = %.3f, want > 1", lossy.AttemptsPerOp)
	}

	tbl := res.Table()
	if tbl.ID != "ExtResilience" || len(tbl.Series) != 3 {
		t.Errorf("table = %q with %d series, want ExtResilience with 3", tbl.ID, len(tbl.Series))
	}
}
