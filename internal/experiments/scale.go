package experiments

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/workload"
)

// scaleParams is the section's configuration: how large a deployment one
// process can simulate after the zero-alloc hot-path work. It reads Peers,
// DataSize, Dims, ThetaSplit, MaxDepth and Seed of the shared knobs, plus
// how many overlay lookups the
// routing phase measures, how many range queries the query phase runs, and
// their side length.
type scaleParams struct {
	Config
	lookupProbes int
	queries      int
	span         float64
}

// scaleAt is the section's preset at scale under what cfg already sets. The
// headline is a 100,000-peer Chord overlay next to a 10,000,000-record index
// — two orders of magnitude past the paper's §7 setup — at the paper's θsplit
// and D whatever the scale; the 0.02 window is sized for multi-million-record
// sets (each query still returns thousands of records).
func scaleAt(cfg Config, scale Scale) (scaleParams, error) {
	p := scaleParams{
		Config:       Config{Peers: 100_000, DataSize: 10_000_000, ThetaSplit: paperFull.ThetaSplit, MaxDepth: paperFull.MaxDepth},
		lookupProbes: 2000,
		queries:      20,
		span:         0.02,
	}
	if scale == Quick {
		p.Peers, p.DataSize, p.lookupProbes = 10_000, 1_000_000, 500
	}
	var err error
	p.Config, err = cfg.at(scale, p.Config)
	p.Records = nil // the phases are sized by Peers and DataSize: always the synthetic dataset
	return p, err
}

func scaleReport(res ScaleResult) Report {
	return Report{Summary: res, Lines: []string{
		fmt.Sprintf("overlay: %d peers bulk-built in %.0fms; %d routed lookups, mean %.2f hops, %.1fµs/op",
			res.Peers, res.OverlayBuildWallMS, res.LookupProbes, res.MeanRouteHops, res.LookupWallUSPerOp),
		fmt.Sprintf("ingest:  %d records generated in %.0fms, bulk-loaded in %.0fms (%.0f records/ms) → %d buckets",
			res.Records, res.GenerateWallMS, res.IngestWallMS, res.IngestRecordsPerMS, res.Buckets),
		fmt.Sprintf("queries: %d windows → %d records, %d DHT lookups, %.2fms/query",
			res.Queries, res.QueryRecords, res.QueryLookups, res.QueryWallMSPerOp),
		fmt.Sprintf("gates:   simnet.Call %.1f allocs/op, Bucket.Append %.1f allocs/op",
			res.CallAllocsPerOp, res.AppendAllocsPerOp),
		fmt.Sprintf("memory:  heap %.0f MiB, sys %.0f MiB, rss %.0f MiB",
			res.HeapAllocMiB, res.SysMiB, res.RSSMiB),
	}}
}

// ScaleResult is the machine-readable outcome of one scale run (written to
// BENCH_scale.json by cmd/mlight-bench).
type ScaleResult struct {
	// Configuration echo.
	Peers      int   `json:"peers"`
	Records    int   `json:"records"`
	ThetaSplit int   `json:"theta_split"`
	MaxDepth   int   `json:"max_depth"`
	Seed       int64 `json:"seed"`

	// Overlay phase: bulk-building the full Chord ring (every successor
	// list, predecessor, and finger wired), then routed lookups through it.
	OverlayBuildWallMS float64 `json:"overlay_build_wall_ms"`
	LookupProbes       int     `json:"lookup_probes"`
	MeanRouteHops      float64 `json:"mean_route_hops"`
	LookupWallUSPerOp  float64 `json:"lookup_wall_us_per_op"`

	// Ingest phase: generating the dataset and bulk-loading it into an
	// index over the sharded in-process substrate.
	GenerateWallMS     float64 `json:"generate_wall_ms"`
	IngestWallMS       float64 `json:"ingest_wall_ms"`
	IngestRecordsPerMS float64 `json:"ingest_records_per_ms"`
	Buckets            int     `json:"buckets"`
	IndexedRecords     int     `json:"indexed_records"`

	// Query phase over the loaded index.
	Queries          int     `json:"queries"`
	QueryRecords     int     `json:"query_records"`
	QueryLookups     int     `json:"query_lookups"`
	QueryWallMSPerOp float64 `json:"query_wall_ms_per_op"`

	// Hot-path allocation gates, measured in-process on the live
	// structures: a delivered simnet RPC and a Bucket append into spare
	// capacity must both be allocation-free.
	CallAllocsPerOp   float64 `json:"call_allocs_per_op"`
	AppendAllocsPerOp float64 `json:"append_allocs_per_op"`

	// Memory footprint after the run (MiB): Go heap in use, total bytes
	// obtained from the OS, and the process RSS where /proc is readable
	// (0 elsewhere).
	HeapAllocMiB float64 `json:"heap_alloc_mib"`
	SysMiB       float64 `json:"sys_mib"`
	RSSMiB       float64 `json:"rss_mib"`

	TotalWallMS float64 `json:"total_wall_ms"`
}

// scaleOut runs the scale-out experiment: bulk-build a Peers-node Chord
// overlay on the simulated network and measure routed lookups through it,
// then bulk-load DataSize records into an index over the sharded local
// substrate and measure queries, finishing with the zero-alloc gates on
// the two hot paths the engine relies on at this scale.
//
// The overlay and the index use separate substrates on purpose: the
// overlay phase measures routing at six-figure membership, the ingest
// phase measures record storage at seven-figure cardinality — coupling
// them would make every index operation pay ~8 routed hops and turn the
// run into a routing benchmark squared.
func scaleOut(cfg scaleParams) (ScaleResult, error) {
	res := ScaleResult{
		Peers:      cfg.Peers,
		Records:    cfg.DataSize,
		ThetaSplit: cfg.ThetaSplit,
		MaxDepth:   cfg.MaxDepth,
		Seed:       cfg.Seed,
	}
	totalStart := time.Now()

	// Phase 1: overlay. Bulk-build the full ring: direct wiring, no RPCs.
	net := simnet.New(simnet.Options{Seed: cfg.Seed})
	ring := chord.NewRing(net, chord.Config{Seed: cfg.Seed})
	addrs := make([]simnet.NodeID, cfg.Peers)
	for i := range addrs {
		addrs[i] = simnet.NodeID("node-" + strconv.Itoa(i))
	}
	buildStart := time.Now()
	if _, err := chord.AddNodesBulk(ring, addrs); err != nil {
		return res, fmt.Errorf("experiments: scale overlay build: %w", err)
	}
	res.OverlayBuildWallMS = float64(time.Since(buildStart)) / float64(time.Millisecond)

	// Phase 2: routed lookups from rotating entry points.
	res.LookupProbes = cfg.lookupProbes
	hops := ring.Hops.Load()
	lookupStart := time.Now()
	for i := 0; i < cfg.lookupProbes; i++ {
		key := dht.Key("probe-" + strconv.Itoa(i))
		entry := overlay.RefOf(addrs[(i*7919)%len(addrs)])
		if _, err := ring.Router().Route(entry, dht.HashKey(key)); err != nil {
			return res, fmt.Errorf("experiments: scale lookup #%d: %w", i, err)
		}
	}
	lookupWall := time.Since(lookupStart)
	res.MeanRouteHops = float64(ring.Hops.Load()-hops) / float64(cfg.lookupProbes)
	res.LookupWallUSPerOp = float64(lookupWall) / float64(time.Microsecond) / float64(cfg.lookupProbes)

	// Zero-alloc gate on the delivered-RPC path, measured on the live
	// network while it carries the full overlay: two probe nodes with an
	// allocation-free handler isolate the transport's own cost.
	for _, probe := range []simnet.NodeID{"alloc-probe-a", "alloc-probe-b"} {
		if err := net.Register(probe, nopHandler{}); err != nil {
			return res, err
		}
	}
	res.CallAllocsPerOp = testing.AllocsPerRun(100, func() {
		//lint:allow droppederr the gate measures the delivered path's allocations; the lossless network cannot fail
		_, _ = net.Call("alloc-probe-a", "alloc-probe-b", struct{}{})
	})

	// Phase 3: dataset + bulk ingest over the sharded substrate.
	genStart := time.Now()
	records := cfg.records()
	res.GenerateWallMS = float64(time.Since(genStart)) / float64(time.Millisecond)

	store, err := dht.NewLocal(cfg.Peers)
	if err != nil {
		return res, err
	}
	ix, err := core.New(store, cfg.tuning(cfg.ThetaSplit))
	if err != nil {
		return res, err
	}
	ingestStart := time.Now()
	if err := ix.BulkLoad(records); err != nil {
		return res, fmt.Errorf("experiments: scale bulk load: %w", err)
	}
	ingestWall := time.Since(ingestStart)
	res.IngestWallMS = float64(ingestWall) / float64(time.Millisecond)
	if res.IngestWallMS > 0 {
		res.IngestRecordsPerMS = float64(cfg.DataSize) / res.IngestWallMS
	}
	census, err := ix.Census(nil, nil)
	if err != nil {
		return res, err
	}
	res.Buckets, res.IndexedRecords = census.Leaves, census.Records
	if res.IndexedRecords != cfg.DataSize {
		return res, fmt.Errorf("experiments: scale index holds %d records, loaded %d", res.IndexedRecords, cfg.DataSize)
	}

	// Zero-alloc gate on the bucket append path: appending into spare
	// capacity on a bucket shaped like the live ones — the leaf of a loaded
	// record, so one that holds a record.
	live, err := ix.Lookup(records[0].Key)
	if err != nil {
		return res, err
	}
	gate := core.NewBucket(live.Label, live.Records())
	gate = gate.Append(spatial.Record{Key: live.KeyAt(0), Data: "gate"})
	probe := spatial.Record{Key: live.KeyAt(0), Data: "p"}
	res.AppendAllocsPerOp = testing.AllocsPerRun(100, func() {
		_ = gate.Append(probe)
	})

	// Phase 4: range queries over the loaded index.
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+100)
	if err != nil {
		return res, err
	}
	queries, err := gen.SpanBatch(cfg.span, cfg.queries)
	if err != nil {
		return res, err
	}
	res.Queries = cfg.queries
	queryStart := time.Now()
	for qi, q := range queries {
		r, err := ix.RangeQuery(q)
		if err != nil {
			return res, fmt.Errorf("experiments: scale query #%d: %w", qi, err)
		}
		res.QueryRecords += len(r.Records)
		res.QueryLookups += r.Lookups
	}
	res.QueryWallMSPerOp = float64(time.Since(queryStart)) / float64(time.Millisecond) / float64(cfg.queries)

	// Footprint. The record slice is still live here, deliberately: the
	// number reports what the whole run holds at once.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapAllocMiB = float64(ms.HeapAlloc) / (1 << 20)
	res.SysMiB = float64(ms.Sys) / (1 << 20)
	res.RSSMiB = readRSSMiB()

	res.TotalWallMS = float64(time.Since(totalStart)) / float64(time.Millisecond)
	return res, nil
}

// nopHandler answers every RPC with the request itself, allocating
// nothing — the allocation gate's counterpart, so the measured count is
// the transport's own.
type nopHandler struct{}

func (nopHandler) HandleRPC(from simnet.NodeID, req any) (any, error) { return req, nil }

// readRSSMiB reads the process resident set from /proc/self/status,
// returning 0 where unavailable (non-Linux).
func readRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmRSS:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmRSS:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
