package mlight_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlight"
	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/index"
	"mlight/internal/peerquery"
	"mlight/internal/simnet"
	"mlight/internal/workload"
)

// TestFullSystem is the grand integration test: a 48-peer Chord ring with
// replication on a latency-modelled network, an m-LIGHT index loaded with
// 15k skewed records through the public API, client-driven and
// peer-executed queries cross-checked against a linear scan, churn (leaves
// and crashes) in the middle, and a snapshot/restore of the final state.
func TestFullSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test")
	}
	const (
		peers   = 48
		records = 15000
	)
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(time.Millisecond)})
	ring := chord.NewRing(net, chord.Config{Seed: 7, Replication: 3})
	for i := 0; i < peers; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)

	ix, err := mlight.New(ring, mlight.WithCapacity(80))
	if err != nil {
		t.Fatal(err)
	}
	data := mlight.GenerateNE(records, 7)
	for i, rec := range data {
		if err := ix.Insert(rec); err != nil {
			t.Fatalf("insert #%d: %v", i, err)
		}
	}
	ring.Stabilize(1)

	svc, err := peerquery.New(ring, net, 2, 28)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewRangeGenerator(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	scanCount := func(q mlight.Rect) int {
		n := 0
		for _, rec := range data {
			if q.Contains(rec.Key) {
				n++
			}
		}
		return n
	}
	checkQueries := func(phase string) {
		t.Helper()
		for trial := 0; trial < 10; trial++ {
			q, err := gen.Span(0.12)
			if err != nil {
				t.Fatal(err)
			}
			want := scanCount(q)
			res, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatalf("%s: client query: %v", phase, err)
			}
			if len(res.Records) != want {
				t.Fatalf("%s: client query = %d, scan = %d", phase, len(res.Records), want)
			}
			peer, err := svc.RangeQuery(q)
			if err != nil {
				t.Fatalf("%s: peer query: %v", phase, err)
			}
			if len(peer.Records) != want {
				t.Fatalf("%s: peer query = %d, scan = %d", phase, len(peer.Records), want)
			}
			if peer.Latency <= 0 {
				t.Fatalf("%s: no latency measured", phase)
			}
		}
	}
	checkQueries("initial")

	// Churn: two graceful leaves and two crashes (absorbed by r=3).
	for i, victim := range []mlight.NodeID{"node-5", "node-23"} {
		if i%2 == 0 {
			if err := ring.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
		} else if err := ring.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		ring.Stabilize(2)
	}
	if err := ring.CrashNode("node-31"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	svc.Reinstall() // membership changed
	checkQueries("post-churn")

	// kNN sanity on the churned system.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		p := mlight.Point{rng.Float64(), rng.Float64()}
		res, err := ix.Nearest(p, 5)
		if err != nil || len(res.Neighbors) != 5 {
			t.Fatalf("kNN after churn: %d results, %v", len(res.Neighbors), err)
		}
	}

	// Snapshot the live system and restore onto a fresh local substrate.
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreInto(mlight.NewLocalDHT(16), bytes.NewReader(buf.Bytes()), index.Tuning{
		Capacity: 80, MergeThreshold: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := restored.Size()
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("restored %d records, want %d", n, records)
	}
	q, err := mlight.NewRect(mlight.Point{0.3, 0.45}, mlight.Point{0.5, 0.65})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("restored query differs: %d vs %d", len(b.Records), len(a.Records))
	}
}
