package dht_test

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
)

// TestShardedConformance holds the store to its contract through NewSharded /
// MustNewSharded, the constructor names cmd/mlight-perf builds it by.
func TestShardedConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		return dht.MustNewSharded(8)
	})
}

// TestShardedBatchAndRange exercises the shard-grouped batch paths, Apply and
// the enumerator against a model map.
func TestShardedBatchAndRange(t *testing.T) {
	s := dht.MustNewSharded(4)
	const n = 1000
	ops := make([]dht.PutOp, n)
	for i := range ops {
		ops[i] = dht.PutOp{Key: dht.Key(fmt.Sprintf("k%d", i)), Value: i}
	}
	for _, err := range s.PutBatch(ops, 8) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	keys := make([]dht.Key, n+1)
	for i := range ops {
		keys[i] = ops[i].Key
	}
	keys[n] = "absent"
	res := s.GetBatch(keys, 8)
	for i := 0; i < n; i++ {
		if !res[i].Found || res[i].Value != i {
			t.Fatalf("GetBatch[%d] = %+v", i, res[i])
		}
	}
	if res[n].Found {
		t.Fatal("GetBatch found an absent key")
	}
	// Apply: increment evens, drop odds.
	for i := range ops {
		if err := s.Apply(ops[i].Key, func(cur any, ok bool) (any, bool) {
			if !ok {
				t.Errorf("key %s missing in Apply", ops[i].Key)
				return nil, false
			}
			if i%2 == 0 {
				return cur.(int) + 1, true
			}
			return nil, false
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[dht.Key]any{}
	if err := s.Range(func(k dht.Key, v any) bool {
		got[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n/2 {
		t.Fatalf("after the applies: %d entries, want %d", len(got), n/2)
	}
	for i := 0; i < n; i += 2 {
		if got[ops[i].Key] != i+1 {
			t.Fatalf("key %s = %v, want %d", ops[i].Key, got[ops[i].Key], i+1)
		}
	}
}

// TestShardedSmallBatch: a round's few keys — spread over shards, one
// repeated, one absent — come back positionally, same-key puts in a batch
// land in batch order, and a 5-key GetBatch allocates its results alone.
func TestShardedSmallBatch(t *testing.T) {
	s := dht.MustNewSharded(4)
	ops := []dht.PutOp{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: 3}, {Key: "c", Value: 4}}
	for _, err := range s.PutBatch(ops, 4) {
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := []dht.Key{"c", "a", "absent", "b", "a"}
	want := []any{4, 3, nil, 2, 3}
	res := s.GetBatch(keys, 4)
	for i, r := range res {
		if r.Found != (want[i] != nil) || r.Value != want[i] {
			t.Fatalf("GetBatch[%d] (%s) = %+v, want %v", i, keys[i], r, want[i])
		}
	}
	if dhttest.RaceEnabled() {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { s.GetBatch(keys, 4) }); allocs != 1 {
		t.Fatalf("a 5-key GetBatch allocates %.1f objects, want 1: the results", allocs)
	}
}
