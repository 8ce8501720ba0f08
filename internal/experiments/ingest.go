package experiments

import (
	"fmt"
	"time"

	"mlight/internal/core"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

// ingestParams is the section's configuration: the shared knobs plus the
// group-commit batch size — how many stream records each InsertBatch call
// carries.
type ingestParams struct {
	Config
	chunk int
}

// ingestMaxInFlight bounds the batch paths' worker pools.
const ingestMaxInFlight = 16

// ingestAt is the section's preset at scale under what cfg already sets. Same
// design point as the resilience section: a small ring keeps routed path
// lengths short, and ingestion itself pays the modeled delays, so the data
// scale is reduced.
func ingestAt(cfg Config, scale Scale) (ingestParams, error) {
	p := ingestParams{Config: Config{Peers: 24, DataSize: 1200}, chunk: 256}
	if scale == Quick {
		p.DataSize = 600
	}
	var err error
	p.Config, err = cfg.at(scale, p.Config)
	return p, err
}

func ingestReport(res IngestResult) Report {
	return Report{Summary: res, Lines: []string{
		fmt.Sprintf("%d records over %d peers at %.1fms/hop → %d buckets, %d splits, %d records moved (identical for sequential and group-commit)",
			res.Records, res.Peers, res.HopDelayMS, res.Buckets, res.Splits, res.RecordsMoved),
		fmt.Sprintf("sequential   %8.1fms  (%d DHT ops)", res.SequentialWallMS, res.SequentialLookups),
		fmt.Sprintf("group-commit %8.1fms  (%d DHT ops) → %.2fx speedup",
			res.GroupCommitWallMS, res.GroupCommitLookups, res.GroupCommitSpeedup),
		fmt.Sprintf("bulk-load    %8.1fms  (%d DHT ops) → %.2fx speedup",
			res.BulkLoadWallMS, res.BulkLoadLookups, res.BulkLoadSpeedup),
	}}
}

// IngestResult is the machine-readable outcome of one ingestion experiment
// (written to BENCH_ingest.json by cmd/mlight-bench). Sequential and
// group-commit ingestion run the same record stream in order; the experiment
// fails unless they produce identical final trees and identical
// Splits/RecordsMoved, so the wall-clock comparison never trades correctness
// for speed. Bulk loading builds the tree locally and only ships final
// buckets, so it is the lower bound on DHT traffic.
type IngestResult struct {
	// Configuration echo.
	DataSize    int     `json:"data_size"`
	Peers       int     `json:"peers"`
	ThetaSplit  int     `json:"theta_split"`
	HopDelayMS  float64 `json:"hop_delay_ms"`
	MaxInFlight int     `json:"max_in_flight"`
	Chunk       int     `json:"chunk"`

	// Identical maintenance accounting across sequential and group-commit
	// ingestion, verified before reporting.
	Records      int   `json:"records"`
	Buckets      int   `json:"buckets"`
	Splits       int64 `json:"splits"`
	RecordsMoved int64 `json:"records_moved"`

	// Per-mode DHT operations (lookups + writes, as charged by the stats
	// layer) and wall-clock time for ingesting the whole stream.
	SequentialLookups  int64   `json:"sequential_lookups"`
	GroupCommitLookups int64   `json:"group_commit_lookups"`
	BulkLoadLookups    int64   `json:"bulk_load_lookups"`
	SequentialWallMS   float64 `json:"sequential_wall_ms"`
	GroupCommitWallMS  float64 `json:"group_commit_wall_ms"`
	BulkLoadWallMS     float64 `json:"bulk_load_wall_ms"`

	// Wall-clock speedups over sequential ingestion.
	GroupCommitSpeedup float64 `json:"group_commit_speedup"`
	BulkLoadSpeedup    float64 `json:"bulk_load_speedup"`
}

// sameIngestTree compares two indexes' leaf frontiers: same bucket labels,
// same per-bucket record multisets (records are identified by their Data
// payload, which the generated streams make unique).
func sameIngestTree(a, b *core.Index) error {
	ab, err := a.Buckets()
	if err != nil {
		return err
	}
	bb, err := b.Buckets()
	if err != nil {
		return err
	}
	if len(ab) != len(bb) {
		return fmt.Errorf("tree shapes differ: %d vs %d buckets", len(ab), len(bb))
	}
	contents := func(bs []core.Bucket) map[string]map[string]int {
		out := make(map[string]map[string]int, len(bs))
		for _, bk := range bs {
			set := make(map[string]int, bk.Load())
			for _, rec := range bk.Records() {
				set[fmt.Sprint(rec.Data)]++
			}
			out[bk.Label.String()] = set
		}
		return out
	}
	ac, bc := contents(ab), contents(bb)
	for label, set := range ac {
		other, ok := bc[label]
		if !ok {
			return fmt.Errorf("bucket %s missing from the other tree", label)
		}
		if len(set) != len(other) {
			return fmt.Errorf("bucket %s holds %d vs %d distinct records", label, len(set), len(other))
		}
		for data, n := range set {
			if other[data] != n {
				return fmt.Errorf("bucket %s: record %q count %d vs %d", label, data, n, other[data])
			}
		}
	}
	return nil
}

// ingest measures what batched writes buy at ingestion time: the same record
// stream is loaded three ways over identical 1 ms/hop Chord deployments —
// record-at-a-time Insert (every lookup and apply pays its round trips back
// to back), group-commit InsertBatch in stream-order chunks (lookups,
// applies, and placements of a chunk overlap up to ingestMaxInFlight), and offline
// BulkLoad (the tree is computed locally; only final buckets ship). Before
// reporting, the experiment verifies sequential and group-commit ingestion
// built identical trees with identical Splits/RecordsMoved.
func ingest(cfg ingestParams) (IngestResult, error) {
	res := IngestResult{
		DataSize:    cfg.DataSize,
		Peers:       cfg.Peers,
		ThetaSplit:  cfg.ThetaSplit,
		HopDelayMS:  float64(cfg.HopDelay) / float64(time.Millisecond),
		MaxInFlight: ingestMaxInFlight,
		Chunk:       cfg.chunk,
	}
	records := cfg.records()
	res.Records = len(records)

	// Each mode ingests into its own fresh, empty deployment over a
	// latency-bearing simnet, with real delays enabled only while its load
	// runs: ingestion itself is the measured phase.
	t := cfg.tuning(cfg.ThetaSplit)
	t.MaxInFlight = ingestMaxInFlight
	load := func(run func(ix *core.Index) error) (*core.Index, time.Duration, error) {
		net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(cfg.HopDelay)})
		_, ix, err := deploy(net, cfg.Peers, overlay.Config{Seed: cfg.Seed}, t, nil)
		if err != nil {
			return nil, 0, err
		}
		net.SetRealDelay(true)
		start := time.Now()
		err = run(ix)
		wall := time.Since(start)
		net.SetRealDelay(false)
		return ix, wall, err
	}

	seqIx, seqWall, err := load(func(ix *core.Index) error {
		for i, rec := range records {
			if err := ix.Insert(rec); err != nil {
				return fmt.Errorf("experiments: ingest sequential #%d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	batIx, batWall, err := load(func(ix *core.Index) error {
		for at := 0; at < len(records); at += cfg.chunk {
			end := min(at+cfg.chunk, len(records))
			for i, err := range ix.InsertBatch(records[at:end]) {
				if err != nil {
					return fmt.Errorf("experiments: ingest group-commit #%d: %w", at+i, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	bulkIx, bulkWall, err := load(func(ix *core.Index) error {
		if err := ix.BulkLoad(records); err != nil {
			return fmt.Errorf("experiments: ingest bulk load: %w", err)
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Correctness gate: every mode built a tree that holds the paper's
	// invariants, and group commit is indistinguishable from the sequential
	// stream, in both the final tree and the maintenance stats.
	for _, ix := range []*core.Index{seqIx, batIx, bulkIx} {
		if err := core.CheckInvariants(ix); err != nil {
			return res, fmt.Errorf("experiments: ingest: %w", err)
		}
	}
	if err := sameIngestTree(seqIx, batIx); err != nil {
		return res, fmt.Errorf("experiments: ingest group-commit diverged from sequential: %w", err)
	}
	seqStats, batStats, bulkStats := seqIx.Stats(), batIx.Stats(), bulkIx.Stats()
	if seqStats.Splits != batStats.Splits || seqStats.RecordsMoved != batStats.RecordsMoved {
		return res, fmt.Errorf(
			"experiments: ingest stats diverged: sequential splits/moved %d/%d vs group-commit %d/%d",
			seqStats.Splits, seqStats.RecordsMoved, batStats.Splits, batStats.RecordsMoved)
	}
	if n, err := bulkIx.Size(); err != nil {
		return res, err
	} else if n != len(records) {
		return res, fmt.Errorf("experiments: bulk load holds %d records, want %d", n, len(records))
	}
	buckets, err := seqIx.Buckets()
	if err != nil {
		return res, err
	}
	res.Buckets = len(buckets)
	res.Splits = seqStats.Splits
	res.RecordsMoved = seqStats.RecordsMoved
	res.SequentialLookups = seqStats.DHTLookups
	res.GroupCommitLookups = batStats.DHTLookups
	res.BulkLoadLookups = bulkStats.DHTLookups
	res.SequentialWallMS = float64(seqWall) / float64(time.Millisecond)
	res.GroupCommitWallMS = float64(batWall) / float64(time.Millisecond)
	res.BulkLoadWallMS = float64(bulkWall) / float64(time.Millisecond)
	if batWall > 0 {
		res.GroupCommitSpeedup = float64(seqWall) / float64(batWall)
	}
	if bulkWall > 0 {
		res.BulkLoadSpeedup = float64(seqWall) / float64(bulkWall)
	}
	return res, nil
}
