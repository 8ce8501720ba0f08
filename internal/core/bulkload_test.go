package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestBulkLoadMatchesIncrementalThreshold: for the threshold strategy, bulk
// loading yields exactly the tree progressive insertion builds, bucket for
// bucket to the byte — records in the same order.
func TestBulkLoadMatchesIncrementalThreshold(t *testing.T) {
	records := bulkRecords(41, 3000)
	bulk, incr := bulkAndIncremental(t, records, index.Tuning{Capacity: 20, MergeThreshold: 10, MaxDepth: 24})
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

// TestBulkLoadMatchesIncrementalDataAware is the data-aware twin: on this
// set the global optimum BulkLoad computes is the tree the greedy
// incremental splits reach, and its buckets match byte for byte.
func TestBulkLoadMatchesIncrementalDataAware(t *testing.T) {
	bulkAndIncremental(t, bulkRecords(41, 3000), index.Tuning{
		Strategy: SplitDataAware, Capacity: 20, Epsilon: 12, MergeThreshold: 10, MaxDepth: 24,
	})
}

// TestBulkLoadLeavesInputUntouched: BulkLoad hands the caller's slice to the
// split, which must not reorder it — a caller may load the same slice into
// several indexes.
func TestBulkLoadLeavesInputUntouched(t *testing.T) {
	for _, strategy := range []SplitStrategy{SplitThreshold, SplitDataAware} {
		records := bulkRecords(5, 2000)
		want := append([]spatial.Record(nil), records...)
		ix := newIndex(t, index.Tuning{Strategy: strategy, Capacity: 20, Epsilon: 12, MergeThreshold: 10})
		if err := ix.BulkLoad(records); err != nil {
			t.Fatal(err)
		}
		for i := range records {
			if records[i].Data != want[i].Data {
				t.Fatalf("%v: BulkLoad reordered its input: record %d is %s, want %s", strategy, i, records[i].Data, want[i].Data)
			}
		}
	}
}

// bulkRecords draws n uniform two-dimensional records from seed.
func bulkRecords(seed int64, n int) []spatial.Record {
	rng := rand.New(rand.NewSource(seed))
	records := make([]spatial.Record, n)
	for i := range records {
		records[i] = spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}
	}
	return records
}

// bulkAndIncremental bulk-loads records into one index and inserts them one
// at a time into another, and requires the same buckets, byte for byte.
func bulkAndIncremental(t *testing.T, records []spatial.Record, opts index.Tuning) (bulk, incr *Index) {
	t.Helper()
	bulk, err := New(dht.MustNewLocal(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(records); err != nil {
		t.Fatal(err)
	}
	incr, err = New(dht.MustNewLocal(16), opts)
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
	byLabel := map[bitlabel.Label]Bucket{}
	for _, b := range incrBuckets {
		byLabel[b.Label] = b
	}
	for _, b := range bulkBuckets {
		other, ok := byLabel[b.Label]
		if !ok {
			t.Fatalf("bulk bucket %v missing from incremental tree", b.Label)
		}
		if !bytes.Equal(b.Marshal(), other.Marshal()) {
			t.Fatalf("bucket %v differs: bulk %v, incremental %v", b.Label, b.Records(), other.Records())
		}
	}
	t.Logf("%d buckets, byte-identical", len(bulkBuckets))
	return bulk, incr
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
