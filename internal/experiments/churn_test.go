package experiments

import "testing"

// TestChurnSmoke runs a scaled-down churn sweep and checks the structural
// invariants the bench artifact relies on: one point per rate, a no-churn
// baseline with perfect availability, retries never hurting, and the WAL
// recovery pass recovering everything while the volatile store loses all.
func TestChurnSmoke(t *testing.T) {
	cfg, err := churnAt(Config{Seed: 1, DataSize: 200, Peers: 10}, Full)
	if err != nil {
		t.Fatal(err)
	}
	cfg.churnRates, cfg.rounds, cfg.queriesPerRound = []float64{0, 0.12}, 4, 15
	res, err := churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.churnRates) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(cfg.churnRates))
	}
	base := res.Points[0]
	if base.ChurnRate != 0 || base.SuccessWithRetry != 1 || base.SuccessWithoutRetry != 1 {
		t.Fatalf("no-churn baseline not perfect: %+v", base)
	}
	// The acceptance bar: ≥95% point-read success at moderate churn with
	// replication, retries, and repair in play.
	if mod := res.Points[1]; mod.SuccessWithRetry < 0.95 {
		t.Errorf("moderate churn (%v): success with retry %.3f, want >= 0.95",
			mod.ChurnRate, mod.SuccessWithRetry)
	}
	for _, p := range res.Points {
		if p.SuccessWithRetry < p.SuccessWithoutRetry {
			t.Errorf("rate %v: retries made availability worse (%v < %v)",
				p.ChurnRate, p.SuccessWithRetry, p.SuccessWithoutRetry)
		}
		if !p.FinalIntact {
			t.Errorf("rate %v: full scan did not reconverge to ground truth within %d rounds",
				p.ChurnRate, p.RecoveryRounds)
		}
	}

	if len(res.Recovery) != 2 {
		t.Fatalf("got %d recovery points, want 2", len(res.Recovery))
	}
	for _, rp := range res.Recovery {
		if rp.WAL {
			if !rp.Intact || rp.RecoveredRecords != 200 {
				t.Errorf("WAL recovery not intact: %+v", rp)
			}
		} else if rp.RecoveredRecords != 0 {
			t.Errorf("volatile store recovered %d records after crash, want 0", rp.RecoveredRecords)
		}
	}

	tbl := res.Table()
	if tbl.ID != "ExtChurn" || len(tbl.Series) != 3 {
		t.Fatalf("table shape wrong: id %q, %d series", tbl.ID, len(tbl.Series))
	}
	for _, s := range tbl.Series {
		if len(s.Points) != len(res.Points) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(res.Points))
		}
	}
}
