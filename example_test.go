package mlight_test

import (
	"fmt"
	"math/rand"
	"sort"

	"mlight"
)

// Example shows the minimal index lifecycle: create, insert, range query.
func Example() {
	ix, err := mlight.New(mlight.NewLocalDHT(8))
	if err != nil {
		fmt.Println(err)
		return
	}
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.41, 0.73}, Data: "pizza"})
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.90, 0.10}, Data: "sushi"})

	q, _ := mlight.NewRect(mlight.Point{0.4, 0.7}, mlight.Point{0.5, 0.8})
	res, _ := ix.RangeQuery(q)
	for _, r := range res.Records {
		fmt.Println(r.Data)
	}
	// Output: pizza
}

// ExampleIndex_RangeQueryParallel shows the latency/bandwidth trade of the
// parallel range query: identical answers, fewer rounds, more lookups.
func ExampleIndex_RangeQueryParallel() {
	ix, _ := mlight.New(mlight.NewLocalDHT(8),
		mlight.WithCapacity(4), mlight.WithMergeThreshold(2))
	for i := 0; i < 64; i++ {
		_ = ix.Insert(mlight.Record{
			Key:  mlight.Point{float64(i%8)/8 + 0.01, float64(i/8)/8 + 0.01},
			Data: fmt.Sprintf("r%d", i),
		})
	}
	q, _ := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{0.6, 0.6})
	basic, _ := ix.RangeQuery(q)
	parallel, _ := ix.RangeQueryParallel(q, 4)
	fmt.Println(len(basic.Records) == len(parallel.Records))
	fmt.Println(parallel.Rounds <= basic.Rounds)
	// Output:
	// true
	// true
}

// ExampleIndex_Nearest finds the records closest to a query point.
func ExampleIndex_Nearest() {
	ix, _ := mlight.New(mlight.NewLocalDHT(8))
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.50, 0.50}, Data: "centre"})
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.52, 0.50}, Data: "near"})
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.90, 0.90}, Data: "far"})

	res, _ := ix.Nearest(mlight.Point{0.5, 0.5}, 2)
	for _, n := range res.Neighbors {
		fmt.Println(n.Record.Data)
	}
	// Output:
	// centre
	// near
}

// ExampleIndex_ShapeQuery answers a circular ("within radius") query.
func ExampleIndex_ShapeQuery() {
	ix, _ := mlight.New(mlight.NewLocalDHT(8))
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.50, 0.50}, Data: "inside"})
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.95, 0.95}, Data: "outside"})

	c, _ := mlight.NewCircle(mlight.Point{0.5, 0.5}, 0.2)
	res, _ := ix.ShapeQuery(c)
	for _, r := range res.Records {
		fmt.Println(r.Data)
	}
	// Output: inside
}

// ExampleNewChordCluster runs the index over a real routed overlay.
func ExampleNewChordCluster() {
	ring, _, err := mlight.NewChordCluster(8, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	ix, _ := mlight.New(ring)
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.3, 0.3}, Data: "on-chord"})
	recs, _ := ix.Exact(mlight.Point{0.3, 0.3})
	fmt.Println(recs[0].Data)
	// Output: on-chord
}

// ExampleQuerier runs the same workload against m-LIGHT and the PHT baseline
// through the scheme-independent interface — how the evaluation harness
// compares schemes.
func ExampleQuerier() {
	mix, _ := mlight.New(mlight.NewLocalDHT(8), mlight.WithCapacity(4))
	pht, _ := mlight.NewPHT(mlight.NewLocalDHT(8), mlight.WithCapacity(4))
	q, _ := mlight.NewRect(mlight.Point{0.2, 0.2}, mlight.Point{0.8, 0.8})

	for _, scheme := range []mlight.Querier{mix, pht} {
		for i := 0; i < 16; i++ {
			_ = scheme.Insert(mlight.Record{
				Key:  mlight.Point{float64(i%4)/4 + 0.1, float64(i/4)/4 + 0.1},
				Data: fmt.Sprintf("r%d", i),
			})
		}
		res, _ := scheme.RangeQuery(q)
		fmt.Println(len(res.Records))
	}
	// Output:
	// 4
	// 4
}

// ExampleWithTrace records a structured trace of one query and prints the
// per-stage latency summary.
func ExampleWithTrace() {
	tc := mlight.NewTraceCollector()
	ix, _ := mlight.New(mlight.NewLocalDHT(8),
		mlight.WithCapacity(4), mlight.WithMaxInFlight(1), mlight.WithTrace(tc))
	for i := 0; i < 16; i++ {
		_ = ix.Insert(mlight.Record{
			Key:  mlight.Point{float64(i%4)/4 + 0.1, float64(i/4)/4 + 0.1},
			Data: fmt.Sprintf("r%d", i),
		})
	}
	tc.Reset() // trace the query alone
	q, _ := mlight.NewRect(mlight.Point{0.2, 0.2}, mlight.Point{0.8, 0.8})
	_, _ = ix.RangeQuery(q)

	for _, s := range tc.Spans() {
		if s.Kind == mlight.TraceKindQuery {
			fmt.Println(s.Name, "traced with", tc.Len(), "spans")
		}
	}
	// Output: range traced with 10 spans
}

// ExampleIndex_Delete removes one record, named by its key and payload; the
// window that held it answers without it.
func ExampleIndex_Delete() {
	ix, _ := mlight.New(mlight.NewLocalDHT(8))
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.41, 0.73}, Data: "pizza"})
	_ = ix.Insert(mlight.Record{Key: mlight.Point{0.44, 0.71}, Data: "noodles"})

	removed, err := ix.Delete(mlight.Point{0.41, 0.73}, "pizza")
	fmt.Println(removed, err)
	q, _ := mlight.NewRect(mlight.Point{0.4, 0.7}, mlight.Point{0.5, 0.8})
	res, _ := ix.RangeQuery(q)
	for _, r := range res.Records {
		fmt.Println(r.Data)
	}
	// Output:
	// true <nil>
	// noodles
}

// ExampleWithSplit indexes the same postal-address points (the synthetic NE
// dataset) under threshold and data-aware splitting: §4.2's load-balance
// claim, observed from the public API.
func ExampleWithSplit() {
	addresses := mlight.GenerateNE(4000, 7)
	for _, s := range []struct {
		name string
		opts []mlight.Option
	}{
		{"threshold", []mlight.Option{mlight.WithSplit(mlight.SplitThreshold)}},
		{"data-aware", []mlight.Option{mlight.WithSplit(mlight.SplitDataAware),
			mlight.WithEpsilon(70), mlight.WithMergeThreshold(35)}},
	} {
		ix, err := mlight.New(mlight.NewLocalDHT(32), s.opts...)
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, rec := range addresses {
			_ = ix.Insert(rec)
		}
		buckets, _ := ix.Buckets()
		empty, maxLoad := 0, 0
		for _, b := range buckets {
			if b.Load() == 0 {
				empty++
			}
			maxLoad = max(maxLoad, b.Load())
		}
		fmt.Printf("%-11s %d buckets, %.0f%% empty, max load %d\n",
			s.name+":", len(buckets), 100*float64(empty)/float64(len(buckets)), maxLoad)
	}
	// Output:
	// threshold:  114 buckets, 15% empty, max load 96
	// data-aware: 70 buckets, 6% empty, max load 171
}

// Example_musicStore is the paper's opening example: a peer-to-peer music
// catalogue asked for "the songs rated above 4 and published during 2007 and
// 2008" — a 2-D range query over (rating, year), which the application
// normalises into the unit square, answered over a 32-peer Chord ring.
func Example_musicStore() {
	const minYear, maxYear = 1990, 2010
	key := func(rating float64, year int) mlight.Point {
		return mlight.Point{rating / 5, float64(year-minYear) / (maxYear - minYear)}
	}
	ring, _, err := mlight.NewChordCluster(32, 11)
	if err != nil {
		fmt.Println(err)
		return
	}
	ix, _ := mlight.New(ring, mlight.WithCapacity(50), mlight.WithMergeThreshold(25))

	rng := rand.New(rand.NewSource(11))
	matches := 0
	for i := 0; i < 1500; i++ {
		rating := float64(rng.Intn(51)) / 10 // 0.0–5.0 stars
		year := minYear + rng.Intn(maxYear-minYear+1)
		if rating > 4 && year >= 2007 && year <= 2008 {
			matches++
		}
		_ = ix.Insert(mlight.Record{Key: key(rating, year), Data: fmt.Sprintf("song %d (%d, %.1f)", i, year, rating)})
	}

	lo, hi := key(4, 2007), key(5, 2008)
	lo[0] += 1e-9 // "above 4" excludes 4.0
	q, _ := mlight.NewRect(lo, hi)
	res, _ := ix.RangeQuery(q)
	fmt.Println(len(res.Records), "songs; a scan of the catalogue counts", matches)
	titles := make([]string, 0, len(res.Records))
	for _, r := range res.Records {
		titles = append(titles, r.Data)
	}
	sort.Strings(titles)
	for _, t := range titles[:3] {
		fmt.Println(t)
	}
	// Output:
	// 33 songs; a scan of the catalogue counts 33
	// song 1053 (2008, 4.5)
	// song 1094 (2008, 4.8)
	// song 1100 (2008, 4.3)
}

// Example_churn keeps one window query answered while the overlay under the
// index changes: peers leave and join a Pastry overlay, whose graceful
// departures hand their keys over, then peers crash on a Chord ring with
// replication 3, whose successors hold live copies.
func Example_churn() {
	q, _ := mlight.NewRect(mlight.Point{0.3, 0.45}, mlight.Point{0.5, 0.65})
	window := func(ix *mlight.Index, event string) {
		if res, err := ix.RangeQuery(q); err != nil {
			fmt.Println(event, err)
		} else {
			fmt.Println(event, len(res.Records), "records in the window")
		}
	}

	pastry, _, err := mlight.NewPastryCluster(16, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	ix, _ := mlight.New(pastry, mlight.WithCapacity(60), mlight.WithMergeThreshold(30))
	for _, rec := range mlight.GenerateNE(2000, 3) {
		_ = ix.Insert(rec)
	}
	window(ix, "pastry, 16 peers:")
	for _, peer := range []string{"node-2", "node-9"} {
		_ = pastry.RemoveNode(mlight.NodeID(peer))
		pastry.Stabilize(2)
		window(ix, peer+" left:")
	}
	for _, peer := range []string{"node-100", "node-101"} {
		_, _ = pastry.AddNode(mlight.NodeID(peer))
		pastry.Stabilize(1)
		window(ix, peer+" joined:")
	}

	ring, _, err := mlight.NewReplicatedChordCluster(12, 3, 5)
	if err != nil {
		fmt.Println(err)
		return
	}
	ix, _ = mlight.New(ring, mlight.WithCapacity(60), mlight.WithMergeThreshold(30))
	for _, rec := range mlight.GenerateNE(1500, 5) {
		_ = ix.Insert(rec)
	}
	ring.Stabilize(1)
	window(ix, "chord r=3, 12 peers:")
	for _, peer := range []string{"node-4", "node-11"} {
		_ = ring.CrashNode(mlight.NodeID(peer))
		ring.Stabilize(2)
		window(ix, peer+" crashed:")
	}
	// Output:
	// pastry, 16 peers: 716 records in the window
	// node-2 left: 716 records in the window
	// node-9 left: 716 records in the window
	// node-100 joined: 716 records in the window
	// node-101 joined: 716 records in the window
	// chord r=3, 12 peers: 432 records in the window
	// node-4 crashed: 432 records in the window
	// node-11 crashed: 432 records in the window
}

// ExampleNewByteDHT runs the index at m = 1 — the authors' earlier LHT
// system — over a substrate that stores only bytes, as a deployment on a
// byte-oriented DHT service would: every bucket crosses the wire format on
// its way in and out. The keys are times of day.
func ExampleNewByteDHT() {
	ix, err := mlight.New(mlight.NewByteDHT(mlight.NewLocalDHT(16)),
		mlight.WithDims(1), mlight.WithCapacity(60), mlight.WithMergeThreshold(30))
	if err != nil {
		fmt.Println(err)
		return
	}
	clock := func(day float64) string {
		mins := int(day * 24 * 60)
		return fmt.Sprintf("%02d:%02d", mins/60, mins%60)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		at := rng.Float64()
		_ = ix.Insert(mlight.Record{Key: mlight.Point{at}, Data: fmt.Sprintf("event %d at %s", i, clock(at))})
	}

	night, _ := mlight.NewRect(mlight.Point{0}, mlight.Point{0.25})
	res, _ := ix.RangeQuery(night)
	fmt.Println(len(res.Records), "events between", clock(0), "and", clock(0.25))
	nn, _ := ix.Nearest(mlight.Point{0.614}, 2)
	for _, n := range nn.Neighbors {
		fmt.Println(n.Record.Data)
	}
	// Output:
	// 263 events between 00:00 and 06:00
	// event 321 at 14:44
	// event 803 at 14:44
}
