package experiments

import (
	"testing"
	"time"
)

// TestIngestSpeedup runs the wall-clock ingestion experiment at a reduced
// scale and pins the write path's headline claims: group-commit ingestion is
// indistinguishable from sequential ingestion (checked inside ingest — it
// errors on any tree or stats divergence, and on a tree of any mode that
// breaks core.CheckInvariants), batching saves DHT operations,
// and both batched modes beat record-at-a-time inserts on the wall clock.
func TestIngestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment sleeps on real network delays")
	}
	cfg, err := ingestAt(Config{
		DataSize:   400,
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
	cfg.chunk = 128
	res, err := ingest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential %.1fms (%d ops), group-commit %.1fms (%d ops, %.2fx), bulk %.1fms (%d ops, %.2fx)",
		res.SequentialWallMS, res.SequentialLookups,
		res.GroupCommitWallMS, res.GroupCommitLookups, res.GroupCommitSpeedup,
		res.BulkLoadWallMS, res.BulkLoadLookups, res.BulkLoadSpeedup)
	if res.Records != 400 || res.Buckets == 0 {
		t.Fatalf("empty accounting: %+v", res)
	}
	if res.GroupCommitLookups > res.SequentialLookups {
		t.Errorf("group commit cost %d DHT ops, sequential %d — batching must not add operations",
			res.GroupCommitLookups, res.SequentialLookups)
	}
	if res.BulkLoadLookups >= res.GroupCommitLookups {
		t.Errorf("bulk load cost %d DHT ops, group commit %d — offline loading must be the lower bound",
			res.BulkLoadLookups, res.GroupCommitLookups)
	}
	if res.GroupCommitSpeedup < 2 {
		t.Errorf("group-commit speedup = %.2fx (sequential %.1fms, batched %.1fms), want ≥ 2x",
			res.GroupCommitSpeedup, res.SequentialWallMS, res.GroupCommitWallMS)
	}
	if res.BulkLoadSpeedup < 4 {
		t.Errorf("bulk-load speedup = %.2fx (sequential %.1fms, bulk %.1fms), want ≥ 4x",
			res.BulkLoadSpeedup, res.SequentialWallMS, res.BulkLoadWallMS)
	}
}
