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

// TestShardedBatchAndRange exercises the shard-grouped batch paths and the
// enumerator against a model map.
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
	// ApplyBatch: increment evens, drop odds.
	aps := make([]dht.ApplyOp, n)
	for i := range aps {
		i := i
		aps[i] = dht.ApplyOp{Key: ops[i].Key, Fn: func(cur any, ok bool) (any, bool) {
			if !ok {
				t.Errorf("key %s missing in ApplyBatch", ops[i].Key)
				return nil, false
			}
			if i%2 == 0 {
				return cur.(int) + 1, true
			}
			return nil, false
		}}
	}
	for _, err := range s.ApplyBatch(aps, 8) {
		if err != nil {
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
		t.Fatalf("after ApplyBatch: %d entries, want %d", len(got), n/2)
	}
	for i := 0; i < n; i += 2 {
		if got[ops[i].Key] != i+1 {
			t.Fatalf("key %s = %v, want %d", ops[i].Key, got[ops[i].Key], i+1)
		}
	}
}
