package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestBulkLoadMatchesIncrementalThreshold: for the threshold strategy, bulk
// loading yields exactly the tree progressive insertion builds.
func TestBulkLoadMatchesIncrementalThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	records := make([]spatial.Record, 3000)
	for i := range records {
		records[i] = spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}
	}
	opts := index.Tuning{Capacity: 20, MergeThreshold: 10, MaxDepth: 24}
	bulk, err := New(dht.MustNewLocal(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(records); err != nil {
		t.Fatal(err)
	}
	incr, err := New(dht.MustNewLocal(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := incr.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	bulkBuckets, err := bulk.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	incrBuckets, err := incr.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(bulkBuckets) != len(incrBuckets) {
		t.Fatalf("bulk %d buckets, incremental %d", len(bulkBuckets), len(incrBuckets))
	}
	byLabel := map[string]Bucket{}
	for _, b := range incrBuckets {
		byLabel[b.Label.String()] = b
	}
	for _, b := range bulkBuckets {
		other, ok := byLabel[b.Label.String()]
		if !ok {
			t.Fatalf("bulk bucket %v missing from incremental tree", b.Label)
		}
		if !sameRecordSet(b.Records(), other.Records()) {
			t.Fatalf("bucket %v contents differ", b.Label)
		}
	}
	// Bulk loading is far cheaper in DHT operations.
	bs, is := bulk.Stats(), incr.Stats()
	if bs.DHTLookups*3 > is.DHTLookups {
		t.Errorf("bulk %d lookups not ≪ incremental %d", bs.DHTLookups, is.DHTLookups)
	}
	// Both moved every record exactly... bulk moves each record once.
	if bs.RecordsMoved != int64(len(records)) {
		t.Errorf("bulk moved %d records, want %d", bs.RecordsMoved, len(records))
	}
}

func TestBulkLoadDataAwareQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	records := make([]spatial.Record, 2000)
	for i := range records {
		records[i] = spatial.Record{
			Key:  spatial.Point{clamp01(0.3 + rng.NormFloat64()*0.1), clamp01(0.6 + rng.NormFloat64()*0.1)},
			Data: fmt.Sprintf("r%d", i),
		}
	}
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Strategy: SplitDataAware, Epsilon: 25, Capacity: 40, MergeThreshold: 12, MaxDepth: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(records); err != nil {
		t.Fatal(err)
	}
	if n, err := ix.Size(); err != nil || n != len(records) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	for trial := 0; trial < 40; trial++ {
		q := randomRect(rng, 2)
		want := 0
		for _, r := range records {
			if q.Contains(r.Key) {
				want++
			}
		}
		res, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != want {
			t.Fatalf("RangeQuery(%v) = %d, scan %d", q, len(res.Records), want)
		}
	}
	// Inserts and deletes keep working on the bulk-loaded structure.
	extra := spatial.Record{Key: spatial.Point{0.9, 0.1}, Data: "extra"}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Delete(extra.Key, extra.Data); err != nil || !ok {
		t.Fatalf("delete after bulk load: %v, %v", ok, err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if err := ix.BulkLoad([]spatial.Record{{Key: spatial.Point{0.5}}}); err == nil {
		t.Error("wrong-dim record accepted")
	}
	if err := ix.BulkLoad([]spatial.Record{{Key: spatial.Point{2, 2}}}); err == nil {
		t.Error("out-of-cube record accepted")
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad([]spatial.Record{{Key: spatial.Point{0.1, 0.1}}}); err == nil {
		t.Error("BulkLoad on non-empty index accepted")
	}
	// Empty load on an empty index is a no-op.
	fresh := newIndex(t, index.Tuning{})
	if err := fresh.BulkLoad(nil); err != nil {
		t.Errorf("empty BulkLoad: %v", err)
	}
}
