package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestCheckInvariants builds a small healthy tree, then breaks each clause
// by hand — writing to the store behind the index's back — and expects
// CheckInvariants to name the clause.
func TestCheckInvariants(t *testing.T) {
	build := func(t *testing.T, strategy SplitStrategy) (*Index, *dht.Local, []Bucket) {
		t.Helper()
		local := dht.MustNewLocal(8)
		ix, err := New(local, index.Tuning{Dims: 2, Capacity: 8, MaxDepth: 12, Strategy: strategy, Epsilon: 6, MergeThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randomPoints(rand.New(rand.NewSource(3)), 2, 120) {
			if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprint("r", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := CheckInvariants(ix); err != nil {
			t.Fatalf("healthy tree: %v", err)
		}
		buckets, err := ix.Buckets()
		if err != nil {
			t.Fatal(err)
		}
		if len(buckets) < 4 {
			t.Fatalf("only %d leaves: the tree never split", len(buckets))
		}
		return ix, local, buckets
	}
	put := func(t *testing.T, local *dht.Local, key dht.Key, b Bucket) {
		t.Helper()
		if err := local.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}
	// nonEmpty picks a leaf with a record to tamper with.
	nonEmpty := func(buckets []Bucket) Bucket {
		for _, b := range buckets {
			if b.Load() > 0 {
				return b
			}
		}
		panic("every leaf is empty")
	}

	for _, tc := range []struct {
		name, want string
		strategy   SplitStrategy
		corrupt    func(t *testing.T, local *dht.Local, buckets []Bucket)
	}{
		{"leaf below a leaf", "is a prefix of", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			child := Bucket{Label: buckets[0].Label.MustAppend(0)}
			put(t, local, child.Key(2), child)
		}},
		{"missing leaf", "do not cover the space", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			if err := local.Remove(buckets[0].Key(2)); err != nil {
				t.Fatal(err)
			}
		}},
		{"bucket under another key", "is not what its key", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			if err := local.Remove(buckets[0].Key(2)); err != nil {
				t.Fatal(err)
			}
			put(t, local, "mlight/elsewhere", buckets[0])
		}},
		{"record of another dimensionality", "3-dimensional record", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			b := buckets[0]
			put(t, local, b.Key(2), NewBucket(b.Label, []spatial.Record{{Key: spatial.Point{0.1, 0.2, 0.3}, Data: "3d"}}))
		}},
		{"record outside its cell", "outside its cell", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			from, to := nonEmpty(buckets), buckets[0]
			if to.Label == from.Label {
				to = buckets[1]
			}
			put(t, local, to.Key(2), to.Append(from.RecordAt(0)))
		}},
		{"overfull leaf", "θsplit is 8", SplitThreshold, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			b := nonEmpty(buckets)
			for b.Load() <= 8 {
				b = b.Append(b.RecordAt(0))
			}
			put(t, local, b.Key(2), b)
		}},
		{"overfull data-aware leaf is no violation", "", SplitDataAware, func(t *testing.T, local *dht.Local, buckets []Bucket) {
			b := nonEmpty(buckets)
			for b.Load() <= 8 {
				b = b.Append(b.RecordAt(0))
			}
			put(t, local, b.Key(2), b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, local, buckets := build(t, tc.strategy)
			tc.corrupt(t, local, buckets)
			err := CheckInvariants(ix)
			if tc.want == "" && err != nil {
				t.Errorf("got %v, want no error", err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
