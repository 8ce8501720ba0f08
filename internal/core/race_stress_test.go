package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestRangeQueryParallelRaceStress hammers the concurrent query engine from
// many goroutines over one shared Index — parallel range queries with
// lookahead, cached point lookups, and a writer splitting and merging leaves
// underneath them. It exists to run under the race detector: the engine's
// worker pool, the batch counters, and the leaf-label cache must all be
// race-clean, and results must stay inside their query rectangles even while
// the tree is restructuring.
func TestRangeQueryParallelRaceStress(t *testing.T) {
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Capacity:       8,
		MergeThreshold: 4,
		MaxInFlight:    8,
		CacheSize:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed enough records that queries fan out over a real leaf frontier.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		rec := spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("seed-%d", i),
		}
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}

	const (
		queriers   = 8
		perQuerier = 30
	)
	var wg sync.WaitGroup

	// One writer keeps the tree moving: inserts force splits, deletes force
	// merges, both invalidating cache entries the readers just planted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(99))
		for i := 0; i < 150; i++ {
			p := spatial.Point{wrng.Float64(), wrng.Float64()}
			data := fmt.Sprintf("churn-%d", i)
			if err := ix.Insert(spatial.Record{Key: p, Data: data}); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
			if i%3 == 0 {
				if removed, err := ix.Delete(p, data); err != nil || !removed {
					t.Errorf("writer delete: %v, %v", removed, err)
					return
				}
			}
		}
	}()

	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < perQuerier; i++ {
				q := randomRect(qrng, 2)
				res, err := ix.RangeQueryParallel(q, 4)
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				for _, rec := range res.Records {
					if !q.Contains(rec.Key) {
						t.Errorf("querier %d: record %v outside %v", g, rec.Key, q)
						return
					}
				}
				// Cached point lookups race with the writer's splits and
				// merges; a stale hint must recover, never error.
				p := spatial.Point{qrng.Float64(), qrng.Float64()}
				if _, err := ix.Lookup(p); err != nil {
					t.Errorf("querier %d lookup: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The batch counters must have seen the fan-out, and a final
	// whole-space query must still see a consistent tree.
	snap := ix.Stats()
	if snap.BatchRounds == 0 || snap.BatchProbes == 0 {
		t.Errorf("batch counters unused: rounds=%d probes=%d", snap.BatchRounds, snap.BatchProbes)
	}
	if snap.MaxInFlight < 1 || snap.MaxInFlight > 8 {
		t.Errorf("MaxInFlight high-water %d outside [1,8]", snap.MaxInFlight)
	}
	if err := CheckInvariants(ix); err != nil {
		t.Fatal(err)
	}
	all, err := ix.RangeQuery(spatial.Rect{Lo: spatial.Point{0, 0}, Hi: spatial.Point{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// 400 seeded, 150 churned in, every third of those deleted again.
	if n, err := ix.Size(); err != nil || len(all.Records) != n || n != 400+150-50 {
		t.Fatalf("whole-space query = %d records, Size = %d (%v), want %d", len(all.Records), n, err, 400+150-50)
	}
}
