// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§7), plus micro-benchmarks of the core operations.
//
// The figure benchmarks run the corresponding experiment end-to-end at a
// reduced scale (so `go test -bench=.` finishes in minutes) and report the
// paper's metrics — DHT-lookups, records moved, rounds — via
// b.ReportMetric. For paper-scale series use cmd/mlight-bench, which prints
// the full tables; EXPERIMENTS.md records the paper-vs-measured comparison.
package mlight_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlight"
	"mlight/internal/experiments"
)

// benchCfg is the reduced-scale configuration used by the figure
// benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{
		DataSize:       8000,
		Peers:          64,
		ThetaSplit:     50,
		Epsilon:        35,
		MaxDepth:       22,
		Seed:           1,
		Checkpoints:    4,
		Thetas:         []int{25, 50, 100},
		Spans:          []float64{0.05, 0.2, 0.4},
		QueriesPerSpan: 10,
		Lookaheads:     []int{2, 4},
	}
}

// reportFinal reports each series' final y value as a named metric.
func reportFinal(b *testing.B, tbl experiments.Table, unit string) {
	b.Helper()
	for _, s := range tbl.Series {
		if p, ok := s.Last(); ok {
			b.ReportMetric(p.Y, sanitize(s.Name)+"-"+unit)
		}
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '(', ')':
		case '-':
			out = append(out, r)
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Fig. 5: index maintenance ---

func BenchmarkFig5a_LookupCostVsDataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lookups, _, err := experiments.Fig5DataSize(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, lookups, "dhtlookups")
		}
	}
}

func BenchmarkFig5b_DataMovementVsDataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, movement, err := experiments.Fig5DataSize(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, movement, "recordsmoved")
		}
	}
}

func BenchmarkFig5c_LookupCostVsTheta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lookups, _, err := experiments.Fig5Theta(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, lookups, "dhtlookups")
		}
	}
}

func BenchmarkFig5d_DataMovementVsTheta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, movement, err := experiments.Fig5Theta(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, movement, "recordsmoved")
		}
	}
}

// --- Fig. 6: storage load balance ---

func BenchmarkFig6a_LoadVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		variance, _, err := experiments.Fig6LoadBalance(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, variance, "loadvariance")
		}
	}
}

func BenchmarkFig6b_EmptyBuckets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, empties, err := experiments.Fig6LoadBalance(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, empties, "emptyfraction")
		}
	}
}

// --- Fig. 7: range query performance ---

func BenchmarkFig7a_RangeBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bandwidth, _, err := experiments.Fig7RangeQuery(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, bandwidth, "lookupsperquery")
		}
	}
}

func BenchmarkFig7b_RangeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, latency, err := experiments.Fig7RangeQuery(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFinal(b, latency, "roundsperquery")
		}
	}
}

// --- Ablations (beyond the paper) ---

func BenchmarkAblations(b *testing.B) {
	cfg := benchCfg()
	cfg.DataSize = 3000
	cfg.QueriesPerSpan = 6
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, tbl := range tables {
				reportFinal(b, tbl, "final")
			}
		}
	}
}

// --- Micro-benchmarks of the core operations ---

// loadedIndex builds an index pre-filled with n NE records.
func loadedIndex(b *testing.B, n int) *mlight.Index {
	b.Helper()
	ix, err := mlight.New(mlight.NewLocalDHT(64), mlight.WithCapacity(100))
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range mlight.GenerateNE(n, 1) {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

func BenchmarkInsert(b *testing.B) {
	ix := loadedIndex(b, 20000)
	extra := mlight.GenerateNE(b.N, 2)
	before := ix.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Insert(extra[i]); err != nil {
			b.Fatal(err)
		}
	}
	delta := ix.Stats().Sub(before)
	b.ReportMetric(float64(delta.DHTLookups)/float64(b.N), "dhtlookups/insert")
}

func BenchmarkLookup(b *testing.B) {
	ix := loadedIndex(b, 20000)
	points := mlight.GenerateNE(1000, 3)
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		_, trace, err := ix.LookupTraced(points[i%len(points)].Key)
		if err != nil {
			b.Fatal(err)
		}
		probes += trace.Probes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/lookup")
}

func BenchmarkExactMatch(b *testing.B) {
	ix := loadedIndex(b, 20000)
	points := mlight.GenerateNE(1000, 1) // same seed as the load: hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Exact(points[i%len(points)].Key); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQueries(n int, span float64) []mlight.Rect {
	rng := rand.New(rand.NewSource(4))
	out := make([]mlight.Rect, n)
	side := span // 2-D: side = sqrt(span); keep spans small enough either way
	for i := range out {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		out[i] = mlight.Rect{
			Lo: mlight.Point{x, y},
			Hi: mlight.Point{x + side, y + side},
		}
	}
	return out
}

func BenchmarkRangeQueryBasic(b *testing.B) {
	ix := loadedIndex(b, 20000)
	queries := benchQueries(256, 0.3)
	b.ResetTimer()
	lookups, rounds := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := ix.RangeQuery(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		lookups += res.Lookups
		rounds += res.Rounds
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
}

func BenchmarkRangeQueryParallel4(b *testing.B) {
	ix := loadedIndex(b, 20000)
	queries := benchQueries(256, 0.3)
	b.ResetTimer()
	lookups, rounds := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := ix.RangeQueryParallel(queries[i%len(queries)], 4)
		if err != nil {
			b.Fatal(err)
		}
		lookups += res.Lookups
		rounds += res.Rounds
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
}

// latencyChordIndex builds a Chord-backed index over a simnet whose RPCs
// really sleep for their modeled delays. The overlay joins and the bulk
// load run with delays suppressed; only the measured queries pay them.
func latencyChordIndex(b *testing.B, maxInFlight int) *mlight.Index {
	b.Helper()
	ring, net, err := mlight.NewChordClusterWithLatency(24, 1, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	net.SetRealDelay(false)
	ix, err := mlight.New(ring, mlight.WithCapacity(50), mlight.WithMaxInFlight(maxInFlight))
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range mlight.GenerateNE(2000, 1) {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	net.SetRealDelay(true)
	return ix
}

// BenchmarkRangeQueryConcurrent measures the parallel range query (h = 4)
// over Chord with 1ms per-hop latency and the engine's full worker pool:
// each round's probes overlap in real time. Compare wall time per op with
// BenchmarkRangeQuerySequentialBaseline — same index, same queries, same
// Lookups and Rounds — to see what concurrency buys on the critical path.
func BenchmarkRangeQueryConcurrent(b *testing.B) {
	ix := latencyChordIndex(b, 16)
	queries := benchQueries(16, 0.4)
	b.ResetTimer()
	lookups, rounds := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := ix.RangeQueryParallel(queries[i%len(queries)], 4)
		if err != nil {
			b.Fatal(err)
		}
		lookups += res.Lookups
		rounds += res.Rounds
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
}

// BenchmarkRangeQueryConcurrentTraced is BenchmarkRangeQueryConcurrent with
// an active trace collector on the same index: every probe, DHT op, retry
// attempt and network hop is recorded. Compare ns/op with
// BenchmarkRangeQueryConcurrent (whose collector is nil — the default — so
// the instrumentation reduces to one nil check per site) to price active
// tracing; the nil-collector run is the pinned <5%-overhead configuration.
func BenchmarkRangeQueryConcurrentTraced(b *testing.B) {
	ring, net, err := mlight.NewChordClusterWithLatency(24, 1, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	net.SetRealDelay(false)
	tc := mlight.NewTraceCollector()
	ix, err := mlight.New(ring,
		mlight.WithCapacity(50),
		mlight.WithMergeThreshold(25),
		mlight.WithMaxInFlight(16),
		mlight.WithTrace(tc),
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range mlight.GenerateNE(2000, 1) {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	net.SetRealDelay(true)
	net.SetTracer(tc)
	queries := benchQueries(16, 0.4)
	b.ResetTimer()
	spans := 0
	for i := 0; i < b.N; i++ {
		tc.Reset()
		if _, err := ix.RangeQueryParallel(queries[i%len(queries)], 4); err != nil {
			b.Fatal(err)
		}
		spans += tc.Len()
	}
	b.ReportMetric(float64(spans)/float64(b.N), "spans/query")
}

// BenchmarkRangeQuerySequentialBaseline is BenchmarkRangeQueryConcurrent
// with MaxInFlight = 1: identical probes, paid back to back.
func BenchmarkRangeQuerySequentialBaseline(b *testing.B) {
	ix := latencyChordIndex(b, 1)
	queries := benchQueries(16, 0.4)
	b.ResetTimer()
	lookups, rounds := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := ix.RangeQueryParallel(queries[i%len(queries)], 4)
		if err != nil {
			b.Fatal(err)
		}
		lookups += res.Lookups
		rounds += res.Rounds
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
}

// BenchmarkLookupCached measures repeat point lookups with the leaf-label
// cache enabled: after the first resolution of a point, a repeat lookup
// verifies the cached leaf with a single DHT probe (probes/lookup → 1).
func BenchmarkLookupCached(b *testing.B) {
	ix, err := mlight.New(mlight.NewLocalDHT(64), mlight.WithCapacity(100), mlight.WithCache(4096))
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range mlight.GenerateNE(20000, 1) {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	points := mlight.GenerateNE(1000, 3)
	for _, p := range points {
		if _, _, err := ix.LookupTraced(p.Key); err != nil { // warm the cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		_, trace, err := ix.LookupTraced(points[i%len(points)].Key)
		if err != nil {
			b.Fatal(err)
		}
		probes += trace.Probes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/lookup")
}

func BenchmarkDelete(b *testing.B) {
	records := mlight.GenerateNE(maxInt(b.N, 1000), 5)
	ix, err := mlight.New(mlight.NewLocalDHT(64), mlight.WithCapacity(100))
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range records {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := records[i%len(records)]
		if _, err := ix.Delete(rec.Key, rec.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChordDHTOp(b *testing.B) {
	ring, _, err := mlight.NewChordCluster(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Joins and stabilization also spend lookup RPCs; reset so the metric
	// reflects steady-state data operations only.
	ring.Hops.Reset()
	ring.Lookups.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := mlight.Key(fmt.Sprintf("bench-%d", i))
		if err := ring.Put(key, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ring.MeanRouteLength(), "hops/op")
}

func BenchmarkPastryDHTOp(b *testing.B) {
	overlay, _, err := mlight.NewPastryCluster(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Joins and stabilization also spend lookup RPCs; reset so the metric
	// reflects steady-state data operations only.
	overlay.Hops.Reset()
	overlay.Lookups.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := mlight.Key(fmt.Sprintf("bench-%d", i))
		if err := overlay.Put(key, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(overlay.MeanRouteLength(), "hops/op")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkExtensions(b *testing.B) {
	cfg := benchCfg()
	cfg.DataSize = 3000
	cfg.QueriesPerSpan = 6
	cfg.Spans = []float64{0.1, 0.3}
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Extensions(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, tbl := range tables {
				reportFinal(b, tbl, "final")
			}
		}
	}
}

func BenchmarkKademliaDHTOp(b *testing.B) {
	overlay, _, err := mlight.NewKademliaCluster(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Joins and stabilization also spend lookup RPCs; reset so the metric
	// reflects steady-state data operations only.
	overlay.Hops.Reset()
	overlay.Lookups.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := mlight.Key(fmt.Sprintf("bench-%d", i))
		if err := overlay.Put(key, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(overlay.MeanRouteLength(), "rpcs/op")
}

func BenchmarkPeerRangeQuery(b *testing.B) {
	ring, net, err := mlight.NewChordCluster(24, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := mlight.New(ring, mlight.WithCapacity(60))
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range mlight.GenerateNE(8000, 1) {
		if err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	svc, err := mlight.NewPeerQueryService(ring, net, 2, 28)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(128, 0.3)
	b.ResetTimer()
	lookups := 0
	for i := 0; i < b.N; i++ {
		res, err := svc.RangeQuery(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		lookups += res.Lookups
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
}

func BenchmarkBulkLoad(b *testing.B) {
	records := mlight.GenerateNE(20000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := mlight.New(mlight.NewLocalDHT(64), mlight.WithCapacity(100))
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.BulkLoad(records); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records")
}

// BenchmarkInsertBatch measures the group-commit ingestion path: the same
// stream BenchmarkInsert pays per record, committed in batches of 256.
func BenchmarkInsertBatch(b *testing.B) {
	ix := loadedIndex(b, 20000)
	extra := mlight.GenerateNE(b.N, 2)
	before := ix.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 256
	for at := 0; at < len(extra); at += chunk {
		end := at + chunk
		if end > len(extra) {
			end = len(extra)
		}
		for i, err := range ix.InsertBatch(extra[at:end]) {
			if err != nil {
				b.Fatalf("record %d: %v", at+i, err)
			}
		}
	}
	delta := ix.Stats().Sub(before)
	b.ReportMetric(float64(delta.DHTLookups)/float64(b.N), "dhtlookups/insert")
}

func BenchmarkNearest(b *testing.B) {
	ix := loadedIndex(b, 20000)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mlight.Point{rng.Float64(), rng.Float64()}
		if _, err := ix.Nearest(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShapeQueryCircle(b *testing.B) {
	ix := loadedIndex(b, 20000)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mlight.Circle{
			Center: mlight.Point{rng.Float64(), rng.Float64()},
			Radius: 0.15,
		}
		if _, err := ix.ShapeQuery(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	ix := loadedIndex(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ix.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := mlight.RestoreIndex(mlight.NewLocalDHT(16), &buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkDialedInsert measures an insert through mlight.Dial against four
// WAL-backed daemons on loopback TCP, with the leaf cache the benchmark
// harness's tcp-cluster workload runs with: rpcs/op and wire-B/op are what the
// client put on the wire per insert (lookup probes of the cache misses
// included; encoded requests and replies, frame headers not counted). Counting
// the bytes marshals every message twice, so ns/op reads high.
func BenchmarkDialedInsert(b *testing.B) {
	addrs, _ := startLoopback(b, 4)
	w := &wireCount{sized: true}
	client := dialCounted(b, addrs, w, mlight.WithCache(256))
	recs := mlight.GenerateNE(20000+b.N, 2)
	if err := client.BulkLoad(recs[:20000]); err != nil {
		b.Fatal(err)
	}
	w.take()
	b.ReportAllocs()
	b.ResetTimer()
	for _, rec := range recs[20000:] {
		if err := client.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	calls, bytes, _ := w.take()
	b.ReportMetric(float64(calls)/float64(b.N), "rpcs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "wire-B/op")
}
