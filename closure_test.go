package mlight_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight"
	"mlight/internal/dht"
)

// applyFails is the in-process substrate with its closure path taken away: it
// forwards every call, ops included, and fails the test on an Apply.
type applyFails struct {
	*dht.Local
	t *testing.T
}

func (a applyFails) Apply(key dht.Key, fn dht.ApplyFunc) error {
	a.t.Errorf("Apply(%q): an index sent a closure", key)
	return a.Local.Apply(key, fn)
}

// TestNoIndexSendsAClosure: m-LIGHT and both baselines bootstrap, split (DST:
// saturate), merge, look up and answer a range query through ops alone, so
// every write an index sends is one a substrate can run at the key's owner.
func TestNoIndexSendsAClosure(t *testing.T) {
	const n, depth = 60, 8
	opts := []mlight.Option{mlight.WithCapacity(6), mlight.WithMergeThreshold(3), mlight.WithMaxDepth(depth)}
	type lookup func(p mlight.Point) error
	schemes := []struct {
		name  string
		build func(d mlight.DHT) (mlight.Querier, lookup, error)
	}{
		{"m-LIGHT", func(d mlight.DHT) (mlight.Querier, lookup, error) {
			ix, err := mlight.New(d, opts...)
			return ix, func(p mlight.Point) error { _, err := ix.Lookup(p); return err }, err
		}},
		{"PHT", func(d mlight.DHT) (mlight.Querier, lookup, error) {
			ix, err := mlight.NewPHT(d, opts...)
			return ix, func(p mlight.Point) error { _, err := ix.Lookup(p); return err }, err
		}},
		{"DST", func(d mlight.DHT) (mlight.Querier, lookup, error) {
			ix, err := mlight.NewDST(d, opts...)
			return ix, func(p mlight.Point) error { _, err := ix.Lookup(p); return err }, err
		}},
	}
	rng := rand.New(rand.NewSource(1))
	recs := make([]mlight.Record, n)
	for i := range recs {
		recs[i] = mlight.Record{Key: mlight.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprint(i)}
	}
	all, err := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			ix, find, err := s.build(applyFails{Local: dht.MustNewLocal(8), t: t})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := ix.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			grown := ix.Stats()
			if s.name == "DST" {
				if grown.RecordsMoved >= n*(depth+1) {
					t.Fatalf("%d records moved for %d inserts: no node saturated", grown.RecordsMoved, n)
				}
			} else if grown.Splits == 0 {
				t.Fatal("no split")
			}
			if err := find(recs[0].Key); err != nil {
				t.Fatal(err)
			}
			if res, err := ix.RangeQuery(all); err != nil || len(res.Records) != n {
				t.Fatalf("RangeQuery = %v, %v; want %d records", res, err, n)
			}
			for _, rec := range recs {
				if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
					t.Fatalf("Delete(%v) = %v, %v", rec.Key, ok, err)
				}
			}
			if s.name != "DST" && ix.Stats().Merges == 0 {
				t.Fatal("no merge")
			}
		})
	}
}
