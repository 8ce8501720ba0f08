package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// genRecords builds a deterministic record stream.
func genRecords(seed int64, n int) []spatial.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]spatial.Record, n)
	for i := range recs {
		recs[i] = spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}
	}
	return recs
}

// sameTree asserts two indexes hold identical leaf frontiers with identical
// bucket contents.
func sameTree(t *testing.T, a, b *Index) {
	t.Helper()
	ab, err := a.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != len(bb) {
		t.Fatalf("tree mismatch: %d vs %d buckets", len(ab), len(bb))
	}
	byLabel := map[string]Bucket{}
	for _, x := range bb {
		byLabel[x.Label.String()] = x
	}
	for _, x := range ab {
		other, ok := byLabel[x.Label.String()]
		if !ok {
			t.Fatalf("bucket %v missing from the other tree", x.Label)
		}
		if !sameRecordSet(x.Records(), other.Records()) {
			t.Fatalf("bucket %v contents differ", x.Label)
		}
	}
}

// TestInsertBatchEquivalentToSequential is the stats-equality acceptance
// test of the group-commit engine: on the same record stream, batched and
// sequential ingestion must produce identical final trees and identical
// Splits/RecordsMoved accounting — batching amortises DHT round trips, it
// never changes what maintenance logically happened.
func TestInsertBatchEquivalentToSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  index.Tuning
		chunk int
	}{
		{"threshold-wholestream", index.Tuning{Capacity: 16, MergeThreshold: 8, MaxDepth: 24}, 0},
		{"threshold-chunks", index.Tuning{Capacity: 16, MergeThreshold: 8, MaxDepth: 24}, 37},
		{"dataaware-wholestream", index.Tuning{Strategy: SplitDataAware, Epsilon: 12, Capacity: 16, MergeThreshold: 8, MaxDepth: 24}, 0},
		{"dataaware-chunks", index.Tuning{Strategy: SplitDataAware, Epsilon: 12, Capacity: 16, MergeThreshold: 8, MaxDepth: 24}, 53},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records := genRecords(1234, 2000)

			seq, err := New(dht.MustNewLocal(16), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records {
				if err := seq.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}

			bat, err := New(dht.MustNewLocal(16), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			chunk := tc.chunk
			if chunk == 0 {
				chunk = len(records)
			}
			for at := 0; at < len(records); at += chunk {
				end := at + chunk
				if end > len(records) {
					end = len(records)
				}
				for i, err := range bat.InsertBatch(records[at:end]) {
					if err != nil {
						t.Fatalf("batched record %d: %v", at+i, err)
					}
				}
			}

			sameTree(t, seq, bat)
			ss, bs := seq.Stats(), bat.Stats()
			if ss.Splits != bs.Splits {
				t.Errorf("Splits: sequential %d, batched %d", ss.Splits, bs.Splits)
			}
			if ss.RecordsMoved != bs.RecordsMoved {
				t.Errorf("RecordsMoved: sequential %d, batched %d", ss.RecordsMoved, bs.RecordsMoved)
			}
			// The whole point: batching must not cost MORE DHT operations.
			if bs.DHTLookups > ss.DHTLookups {
				t.Errorf("DHTLookups: batched %d exceeds sequential %d", bs.DHTLookups, ss.DHTLookups)
			}
		})
	}
}

// TestInsertBatchValidationPositional pins per-record validation: bad
// records fail in place, good ones land.
func TestInsertBatchValidationPositional(t *testing.T) {
	ix, err := New(dht.MustNewLocal(8), index.Tuning{Capacity: 8, MergeThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := []spatial.Record{
		{Key: spatial.Point{0.1, 0.2}, Data: "ok-0"},
		{Key: spatial.Point{0.5}, Data: "wrong-dims"},
		{Key: spatial.Point{1.5, 0.5}, Data: "outside"},
		{Key: spatial.Point{0.9, 0.9}, Data: "ok-1"},
	}
	errs := ix.InsertBatch(recs)
	if errs[0] != nil || errs[3] != nil {
		t.Errorf("valid records errored: %v, %v", errs[0], errs[3])
	}
	if !errors.Is(errs[1], ErrDimension) {
		t.Errorf("wrong-dims = %v, want ErrDimension", errs[1])
	}
	if errs[2] == nil {
		t.Error("outside-cube record accepted")
	}
	if got, _ := ix.Size(); got != 2 {
		t.Errorf("index holds %d records, want 2", got)
	}
	if errs := ix.InsertBatch(nil); len(errs) != 0 {
		t.Errorf("empty batch returned %d errors", len(errs))
	}
}

// TestInsertBatchSingleLeafManySplits drives one batch that splits a single
// leaf several levels deep: the replay must cascade splits exactly as the
// sequential stream would.
func TestInsertBatchSingleLeafManySplits(t *testing.T) {
	opts := index.Tuning{Capacity: 4, MergeThreshold: 2, MaxDepth: 20}
	seq, _ := New(dht.MustNewLocal(8), opts)
	bat, _ := New(dht.MustNewLocal(8), opts)
	// All records in one quadrant: every split keeps cascading locally.
	rng := rand.New(rand.NewSource(5))
	recs := make([]spatial.Record, 200)
	for i := range recs {
		recs[i] = spatial.Record{
			Key:  spatial.Point{rng.Float64() * 0.25, rng.Float64() * 0.25},
			Data: fmt.Sprintf("q%d", i),
		}
	}
	for _, r := range recs {
		if err := seq.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i, err := range bat.InsertBatch(recs) {
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	sameTree(t, seq, bat)
	ss, bs := seq.Stats(), bat.Stats()
	if ss.Splits != bs.Splits || ss.RecordsMoved != bs.RecordsMoved {
		t.Errorf("stats diverged: seq splits/moved %d/%d, batch %d/%d",
			ss.Splits, ss.RecordsMoved, bs.Splits, bs.RecordsMoved)
	}
}

// TestWriterCoalescesConcurrentInserts hammers the group-commit Writer from
// many goroutines: every record must land exactly once, with insert-level
// error semantics, while commits batch whatever overlaps.
func TestWriterCoalescesConcurrentInserts(t *testing.T) {
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Capacity:       8,
		MergeThreshold: 4,
		MaxInFlight:    8,
		Sleep:          dht.NoSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := ix.Writer()
	if w != ix.Writer() {
		t.Fatal("Writer() is not a stable singleton")
	}
	const (
		goroutines = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				rec := spatial.Record{
					Key:  spatial.Point{rng.Float64(), rng.Float64()},
					Data: fmt.Sprintf("w%d-%d", g, i),
				}
				if err := w.Insert(rec); err != nil {
					t.Errorf("writer insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, err := ix.Size(); err != nil || got != goroutines*perG {
		t.Fatalf("index holds %d records (err %v), want %d", got, err, goroutines*perG)
	}
	// Every record must be findable — the trees the commits built are
	// consistent, not just complete.
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < perG; i++ {
			p := spatial.Point{rng.Float64(), rng.Float64()}
			recs, err := ix.Exact(p)
			if err != nil {
				t.Fatalf("exact(%v): %v", p, err)
			}
			if len(recs) == 0 {
				t.Fatalf("record w%d-%d at %v not found", g, i, p)
			}
		}
	}
}

// TestInsertBatchRangeQueryRaceStress runs concurrent InsertBatch commits
// against parallel range queries over one shared index — the write-path
// counterpart of TestRangeQueryParallelRaceStress, here for the race
// detector: group-commit replay, batched placement, cache maintenance, and
// the query engine must all be race-clean while the tree restructures.
func TestInsertBatchRangeQueryRaceStress(t *testing.T) {
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Capacity:       8,
		MergeThreshold: 4,
		MaxInFlight:    8,
		CacheSize:      32,
		// The real backoff, not dht.NoSleep: a retry has to let the split it
		// collided with make progress, and twelve retries that never yield
		// spin out on a two-CPU machine before the splitter runs again (the
		// test failed six runs in ten there, with every insert valid).
		Sleep: time.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range genRecords(11, 200) {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const writers = 3
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + wr)))
			for round := 0; round < 10; round++ {
				batch := make([]spatial.Record, 20)
				for i := range batch {
					batch[i] = spatial.Record{
						Key:  spatial.Point{rng.Float64(), rng.Float64()},
						Data: fmt.Sprintf("b%d-%d-%d", wr, round, i),
					}
				}
				for i, err := range ix.InsertBatch(batch) {
					if err != nil {
						t.Errorf("writer %d round %d record %d: %v", wr, round, i, err)
						return
					}
				}
			}
		}(wr)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + q)))
			for i := 0; i < 25; i++ {
				rect := randomRect(rng, 2)
				res, err := ix.RangeQueryParallel(rect, 4)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue
					}
					t.Errorf("querier %d: %v", q, err)
					return
				}
				for _, r := range res.Records {
					if !rect.Contains(r.Key) {
						t.Errorf("querier %d: record %v outside %v", q, r.Key, rect)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	if got, err := ix.Size(); err != nil || got != 200+writers*10*20 {
		t.Fatalf("index holds %d records (err %v), want %d", got, err, 200+writers*10*20)
	}
}
