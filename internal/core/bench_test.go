package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// benchRangeIndex builds an index with n seeded uniform records.
func benchRangeIndex(b *testing.B, n int) *Index {
	b.Helper()
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Capacity:       16,
		MergeThreshold: 8,
		MaxInFlight:    8,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

// BenchmarkRangeDissemination answers one large-span range query per
// iteration at the basic algorithm's h = 1 and at the h = 4 lookahead.
func BenchmarkRangeDissemination(b *testing.B) {
	q := spatial.Rect{Lo: spatial.Point{0.2, 0.3}, Hi: spatial.Point{0.7, 0.8}}
	ix := benchRangeIndex(b, 800)
	for _, h := range []int{1, 4} {
		b.Run(fmt.Sprintf("lookahead-%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.RangeQueryParallel(q, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupCacheMiss looks up fresh uniform points in a tree of about
// 2000 leaves: with a 256-leaf cache most of them miss, and a miss starts
// below the deepest path prefix the cached leaves and the shape entries of
// evicted ones prove internal. cache-0 is
// the plain §5 search on the same tree. probes/miss counts the probes of the
// lookups the cache did not answer.
func BenchmarkLookupCacheMiss(b *testing.B) {
	for _, size := range []int{0, 256} {
		b.Run(fmt.Sprintf("cache-%d", size), func(b *testing.B) {
			ix, err := New(dht.MustNewLocal(16), index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: size})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 10000; i++ {
				p := spatial.Point{rng.Float64(), rng.Float64()}
				if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
					b.Fatal(err)
				}
			}
			before := ix.Stats()
			probes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, lt, err := ix.LookupTraced(spatial.Point{rng.Float64(), rng.Float64()})
				if err != nil {
					b.Fatal(err)
				}
				probes += lt.Probes
			}
			b.StopTimer()
			d := ix.Stats().Sub(before)
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			if misses := int64(b.N) - d.CacheHits; misses > 0 {
				b.ReportMetric(float64(int64(probes)-d.CacheHits)/float64(misses), "probes/miss")
			}
		})
	}
}

// BenchmarkBucketAppend measures the ingest hot path: appending a record
// into a bucket with spare capacity. Paired with
// TestBucketAppendZeroAlloc, the ReportAllocs number is the CI gate.
func BenchmarkBucketAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	bk := NewBucket(bitlabel.Root(2), randomRecords(rng, 100, 2))
	rec := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "payload"}
	bk = bk.Append(rec) // grow once; the loop appends into spare capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bk.Append(rec)
	}
}

// BenchmarkBucketScan filters a θ-sized bucket by a rectangle — the inner
// loop of every range query.
func BenchmarkBucketScan(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	bk := NewBucket(bitlabel.Root(2), randomRecords(rng, 100, 2))
	q := spatial.Rect{Lo: spatial.Point{0.25, 0.25}, Hi: spatial.Point{0.75, 0.75}}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		hits += len(filterRecords(bk, q, nil).at)
	}
	_ = hits
}

// BenchmarkBulkLoad builds the whole tree of 100k and of 250k synthetic NE
// records locally and places its buckets in the in-process store: the split
// that dominates every benchmark workload's set-up (engine-local preloads
// 250k).
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{100000, 250000} {
		records := dataset.Generate(n, 1)
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := New(dht.MustNewLocal(16), index.Tuning{Capacity: 64, MergeThreshold: 32})
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.BulkLoad(records); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
