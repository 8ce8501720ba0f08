package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestRangeDriverStartsNoGoroutine: a round is a call into the substrate, so
// the driver itself has nothing to overlap and nothing to lock — how a batch
// is spread over workers, shards or frames is the substrate's business.
func TestRangeDriverStartsNoGoroutine(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "range.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
			t.Errorf("range.go imports %s", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			t.Error("range.go starts a goroutine")
		}
		return true
	})
}

// batchLog is a substrate that counts how its reads arrive: one by one, or a
// batch at a time.
type batchLog struct {
	*dht.Local
	mu      sync.Mutex
	gets    int
	batches []int // keys per GetBatch call, in call order
}

func (b *batchLog) Get(k dht.Key) (any, bool, error) {
	b.mu.Lock()
	b.gets++
	b.mu.Unlock()
	return b.Local.Get(k)
}

func (b *batchLog) GetBatch(keys []dht.Key, maxInFlight int) []dht.BatchResult {
	b.mu.Lock()
	b.batches = append(b.batches, len(keys))
	b.mu.Unlock()
	return b.Local.GetBatch(keys, maxInFlight)
}

// TestRangeRoundIsOneBatchCall: the LCA probe is a single get; every round
// after it reaches the substrate as one GetBatch carrying all the round's
// probes, whatever MaxInFlight says.
func TestRangeRoundIsOneBatchCall(t *testing.T) {
	for _, inFlight := range []int{1, 16} {
		log := &batchLog{Local: dht.MustNewLocal(16)}
		ix, err := New(log, index.Tuning{Capacity: 10, MergeThreshold: 5, MaxInFlight: inFlight})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 1200; i++ {
			if err := ix.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: strconv.Itoa(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			q := randomRect(rng, 2)
			log.gets, log.batches = 0, nil
			before := ix.Stats()
			res, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds < 2 {
				continue
			}
			probes := 0
			for _, n := range log.batches {
				probes += n
			}
			if log.gets != 1 || len(log.batches) != res.Rounds-1 || probes != res.Lookups-1 {
				t.Fatalf("MaxInFlight %d, %v: %d gets and batches %v for %d lookups in %d rounds; want 1 get and one batch per later round",
					inFlight, q, log.gets, log.batches, res.Lookups, res.Rounds)
			}
			if d := ix.Stats().Sub(before); d.DHTLookups != int64(res.Lookups) || d.BatchRounds != int64(res.Rounds-1) {
				t.Fatalf("counted %d lookups in %d batch rounds, the query reports %d in %d", d.DHTLookups, d.BatchRounds, res.Lookups, res.Rounds-1)
			}
		}
	}
}

// unbatched hides every optional capability of a substrate, so a batch
// decomposes into concurrent single gets (dht.Fan).
type unbatched struct{ inner dht.DHT }

func (u unbatched) Put(k dht.Key, v any) error             { return u.inner.Put(k, v) }
func (u unbatched) Get(k dht.Key) (any, bool, error)       { return u.inner.Get(k) }
func (u unbatched) Remove(k dht.Key) error                 { return u.inner.Remove(k) }
func (u unbatched) Apply(k dht.Key, f dht.ApplyFunc) error { return u.inner.Apply(k, f) }
func (u unbatched) Owner(k dht.Key) (string, error)        { return u.inner.Owner(k) }

// TestLookaheadRoundMixesProbesAndCandidates: with h > 1 a round carries
// piece probes (counted view) and covering-leaf candidates (raw view) side by
// side — two batches whose results must each land with the item that asked.
// Answered natively under one lock or by sixteen concurrent gets, in order or
// not, the query must read the same records at the same cost as the
// sequential engine. Run under -race: the results are filled concurrently.
func TestLookaheadRoundMixesProbesAndCandidates(t *testing.T) {
	store := dht.MustNewLocal(16)
	build := equivIndexOver(t, store, index.Tuning{Capacity: 10, MergeThreshold: 5, MaxInFlight: 1}, 1200, 42)
	pooled, err := New(unbatched{store}, index.Tuning{Capacity: 10, MergeThreshold: 5, MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mixed := false
	for i := 0; i < 40; i++ {
		q := randomRect(rng, 2)
		for _, h := range []int{2, 4, 8} {
			want, err := build.RangeQueryParallel(q, h)
			if err != nil {
				t.Fatal(err)
			}
			before := pooled.Stats()
			got, err := pooled.RangeQueryParallel(q, h)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(got.Records, want.Records) || got.Lookups != want.Lookups || got.Rounds != want.Rounds {
				t.Fatalf("h=%d %v: pooled engine %d records, L=%d R=%d; sequential %d records, L=%d R=%d",
					h, q, len(got.Records), got.Lookups, got.Rounds, len(want.Records), want.Lookups, want.Rounds)
			}
			d := pooled.Stats().Sub(before)
			if d.DHTLookups != int64(got.Lookups) {
				t.Fatalf("h=%d %v: %d lookups counted, %d reported", h, q, d.DHTLookups, got.Lookups)
			}
			// Candidates are charged at adjudication, not by the counted view:
			// fewer batched probes than lookups means a candidate round ran.
			if d.BatchProbes < int64(got.Lookups-1) {
				mixed = true
			}
		}
	}
	if !mixed {
		t.Fatal("no query overshot the tree: the candidate batch was never exercised")
	}
}
