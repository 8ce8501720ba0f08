package experiments

import "testing"

// TestScaleSmoke runs the scale experiment at CI size — 1k peers, 100k
// records — checking every phase completes and the hot-path allocation
// gates hold. The headline 100k-peer / 10M-record configuration runs via
// mlight-bench -figs scale.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	cfg, err := scaleAt(Config{Peers: 1000, DataSize: 100_000}, Full)
	if err != nil {
		t.Fatal(err)
	}
	cfg.lookupProbes, cfg.queries, cfg.span = 200, 5, 0.05
	res, err := scaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexedRecords != cfg.DataSize {
		t.Fatalf("indexed %d records, want %d", res.IndexedRecords, cfg.DataSize)
	}
	if res.Buckets < cfg.DataSize/res.ThetaSplit/4 {
		t.Fatalf("only %d buckets for %d records at θ=%d", res.Buckets, cfg.DataSize, res.ThetaSplit)
	}
	// log2(1000) ≈ 10: the bulk-built finger tables must give real Chord
	// routing, not successor walking.
	if res.MeanRouteHops <= 0 || res.MeanRouteHops > 15 {
		t.Fatalf("mean route length %.2f implausible for 1k peers", res.MeanRouteHops)
	}
	if res.QueryRecords == 0 || res.QueryLookups == 0 {
		t.Fatalf("queries returned nothing: %+v", res)
	}
	if res.CallAllocsPerOp != 0 {
		t.Errorf("simnet.Call allocates %.1f objects/op on the delivered path, want 0", res.CallAllocsPerOp)
	}
	if res.AppendAllocsPerOp != 0 {
		t.Errorf("Bucket.Append allocates %.1f objects/op with spare capacity, want 0", res.AppendAllocsPerOp)
	}
	if res.OverlayBuildWallMS <= 0 || res.IngestWallMS <= 0 || res.TotalWallMS <= 0 {
		t.Fatalf("missing wall-clock measurements: %+v", res)
	}
}
