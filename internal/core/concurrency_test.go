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

// TestConcurrentInsertsAndQueries drives the index from many goroutines at
// once. Inserts must all land, each in one attempt; two of the writers delete
// every other record they inserted, so merges race with splits; queries must
// never fail nor return wrong data while the tree restructures (a move is
// invisible, move.go); and the final structure must be exactly consistent.
func TestConcurrentInsertsAndQueries(t *testing.T) {
	ix, err := New(dht.MustNewLocal(16), index.Tuning{Capacity: 12, MergeThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 8
		deleters  = 2 // the first writers also delete their own odd records
		perWriter = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []spatial.Record
			for i := 0; i < perWriter; i++ {
				rec := spatial.Record{
					Key:  spatial.Point{rng.Float64(), rng.Float64()},
					Data: fmt.Sprintf("w%d-%d", w, i),
				}
				if err := ix.Insert(rec); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				mine = append(mine, rec)
				if w < deleters && i%2 == 1 {
					old := mine[i-1]
					if removed, err := ix.Delete(old.Key, old.Data); err != nil || !removed {
						t.Errorf("writer %d delete %s: %v, %v", w, old.Data, removed, err)
						return
					}
				}
			}
		}(w)
	}
	want := writers*perWriter - deleters*perWriter/2
	// Concurrent readers: range queries while the tree is splitting.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randomRect(rng, 2)
				res, err := ix.RangeQuery(q)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, rec := range res.Records {
					if !q.Contains(rec.Key) {
						t.Errorf("reader %d: record %v outside %v", r, rec.Key, q)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Final consistency: every record present exactly once, structure sane.
	if err := CheckInvariants(ix); err != nil {
		t.Fatal(err)
	}
	if n, err := ix.Size(); err != nil || n != want {
		t.Fatalf("Size = %d, %v; want %d", n, err, want)
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range buckets {
		g, err := spatial.RegionOf(b.Label, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range b.Records() {
			if !g.Contains(rec.Key) {
				t.Fatalf("record %v outside its bucket %v", rec.Key, b.Label)
			}
			if seen[rec.Data] {
				t.Fatalf("record %s duplicated", rec.Data)
			}
			seen[rec.Data] = true
		}
	}
	// Whole-space query returns everything.
	all, err := ix.RangeQuery(spatial.Rect{Lo: spatial.Point{0, 0}, Hi: spatial.Point{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Records) != want {
		t.Fatalf("whole-space query = %d records, want %d", len(all.Records), want)
	}
}
