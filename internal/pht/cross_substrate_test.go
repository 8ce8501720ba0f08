package pht_test

import (
	"fmt"
	"testing"

	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/pht"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

// TestPHTOverEveryOverlay: the PHT baseline is as substrate-agnostic as
// m-LIGHT — identical answers over all four substrates.
func TestPHTOverEveryOverlay(t *testing.T) {
	build := func(t *testing.T, name string) dht.DHT {
		if name == "local" {
			return dht.MustNewLocal(12)
		}
		o, err := substrate.New(name, simnet.New(simnet.Options{}), overlay.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		o.Stabilize(2)
		return o
	}
	records := dataset.Generate(800, 11)
	gen, err := workload.NewRangeGenerator(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]spatial.Rect, 12)
	for i := range queries {
		q, err := gen.Span(0.15)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	var baseline []int
	for _, name := range append([]string{"local"}, substrate.Names...) {
		t.Run(name, func(t *testing.T) {
			ix, err := pht.New(build(t, name), index.Tuning{Capacity: 25, MergeThreshold: 12})
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range records {
				if err := ix.Insert(rec); err != nil {
					t.Fatalf("insert #%d: %v", i, err)
				}
			}
			counts := make([]int, len(queries))
			for qi, q := range queries {
				res, err := ix.RangeQuery(q)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				counts[qi] = len(res.Records)
			}
			if baseline == nil {
				baseline = counts
				return
			}
			for qi := range counts {
				if counts[qi] != baseline[qi] {
					t.Fatalf("query %d over %s = %d records, local = %d",
						qi, name, counts[qi], baseline[qi])
				}
			}
		})
	}
}
