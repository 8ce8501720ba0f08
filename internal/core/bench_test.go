package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
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
// below the deepest path prefix the cached leaves prove internal. cache-0 is
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
// into a bucket with spare arena capacity. Paired with
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

// BenchmarkBucketScan walks every record of a θ-sized bucket through the
// columnar accessors — the inner loop of every range-query filter.
func BenchmarkBucketScan(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	bk := NewBucket(bitlabel.Root(2), randomRecords(rng, 100, 2))
	q := spatial.Rect{Lo: spatial.Point{0.25, 0.25}, Hi: spatial.Point{0.75, 0.75}}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for j, n := 0, bk.Load(); j < n; j++ {
			if q.Contains(bk.KeyAt(j)) {
				hits++
			}
		}
	}
	_ = hits
}
