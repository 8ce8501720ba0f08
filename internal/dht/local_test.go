package dht

import (
	"fmt"
	"sync"
	"testing"

	"mlight/internal/metrics"
)

func TestLocalPutGetRemove(t *testing.T) {
	l := MustNewLocal(4)
	if _, ok, err := l.Get("absent"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("Get(absent) found a value")
	}
	if err := l.Put("k", 42); err != nil {
		t.Fatal(err)
	}
	v, ok, err := l.Get("k")
	if err != nil || !ok || v != 42 {
		t.Fatalf("Get(k) = %v, %v, %v", v, ok, err)
	}
	if err := l.Put("k", 43); err != nil {
		t.Fatal(err)
	}
	if v, _, err := l.Get("k"); err != nil {
		t.Fatal(err)
	} else if v != 43 {
		t.Errorf("Put did not replace: %v", v)
	}
	if err := l.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l.Get("k"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("Remove left value behind")
	}
	if err := l.Remove("k"); err != nil {
		t.Errorf("Remove of absent key errored: %v", err)
	}
}

func TestLocalApply(t *testing.T) {
	l := MustNewLocal(1)
	// Create via Apply.
	err := l.Apply("counter", func(cur any, exists bool) (any, bool) {
		if exists {
			t.Error("expected absent value on first Apply")
		}
		return 1, true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate via Apply.
	if err := l.Apply("counter", func(cur any, exists bool) (any, bool) {
		n, ok := cur.(int)
		if !exists || !ok {
			t.Errorf("Apply saw cur=%v exists=%v", cur, exists)
		}
		return n + 1, true
	}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := l.Get("counter"); err != nil {
		t.Fatal(err)
	} else if v != 2 {
		t.Errorf("counter = %v, want 2", v)
	}
	// Delete via Apply.
	if err := l.Apply("counter", func(cur any, exists bool) (any, bool) {
		return nil, false
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l.Get("counter"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("Apply(keep=false) did not delete")
	}
}

func TestLocalOwnerConsistent(t *testing.T) {
	l := MustNewLocal(16)
	owners := make(map[string]int)
	for i := 0; i < 2000; i++ {
		k := Key(fmt.Sprintf("key-%d", i))
		o1, err := l.Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := l.Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		if o1 != o2 {
			t.Fatalf("Owner(%q) unstable: %q vs %q", k, o1, o2)
		}
		owners[o1]++
	}
	if len(owners) < 8 {
		t.Errorf("only %d of 16 peers own keys; hashing badly skewed", len(owners))
	}
}

func TestLocalNeedsPeers(t *testing.T) {
	if _, err := NewLocal(0); err == nil {
		t.Error("NewLocal(0) succeeded")
	}
}

func TestLocalRange(t *testing.T) {
	l := MustNewLocal(2)
	for i := 0; i < 10; i++ {
		if err := l.Put(Key(fmt.Sprintf("k%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := l.Range(func(k Key, v any) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("Range visited %d entries, want 10", seen)
	}
	// Early stop.
	seen = 0
	if err := l.Range(func(k Key, v any) bool { seen++; return seen < 3 }); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("Range after early stop visited %d, want 3", seen)
	}
	if l.Len() != 10 {
		t.Errorf("Len = %d, want 10", l.Len())
	}
}

// TestLocalConcurrentAccess hammers disjoint keys from many goroutines — run
// under -race this is the shard-safety proof.
func TestLocalConcurrentAccess(t *testing.T) {
	l := MustNewLocal(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key(fmt.Sprintf("g%d-%d", g, i))
				if err := l.Put(k, i); err != nil {
					t.Error(err)
					return
				}
				if err := l.Apply(k, func(cur any, ok bool) (any, bool) {
					return cur.(int) + 1, true
				}); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := l.Get(k); err != nil || !ok || v != i+1 {
					t.Errorf("Get(%q) = %v, ok=%v err=%v", k, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", l.Len(), 8*200)
	}
}

func TestCountingCharges(t *testing.T) {
	var stats metrics.IndexStats
	c := NewCounting(MustNewLocal(2), &stats)
	if err := c.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("missing"); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply("a", func(cur any, ok bool) (any, bool) { return 2, true }); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := stats.DHTLookups.Load(); got != 5 {
		t.Errorf("DHTLookups = %d, want 5", got)
	}
	// Owner and Range are measurement aids: uncounted.
	if _, err := c.Owner("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Range(func(Key, any) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := stats.DHTLookups.Load(); got != 5 {
		t.Errorf("Owner/Range were counted: %d", got)
	}
}

type opaqueDHT struct{ DHT }

func TestCountingRangeUnsupported(t *testing.T) {
	var stats metrics.IndexStats
	c := NewCounting(opaqueDHT{MustNewLocal(1)}, &stats)
	if err := c.Range(func(Key, any) bool { return true }); err != ErrNotEnumerable {
		t.Errorf("Range on opaque substrate = %v, want ErrNotEnumerable", err)
	}
}

func TestLocalOwnerDistribution(t *testing.T) {
	// With 128 peers and many keys, consistent hashing should touch most
	// peers — the property Fig. 6 relies on for per-peer load measurement.
	l := MustNewLocal(128)
	owners := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		o, err := l.Owner(Key(fmt.Sprintf("dist-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		owners[o] = true
	}
	if len(owners) < 100 {
		t.Errorf("keys landed on %d of 128 peers", len(owners))
	}
}

// BenchmarkLocalPutGet measures one Put + Get round trip through the striped
// store, the operation the bulk-load and query paths repeat millions of times
// at scale.
func BenchmarkLocalPutGet(b *testing.B) {
	l := MustNewLocal(64)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("bench-key-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		if err := l.Put(k, i); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := l.Get(k); err != nil || !ok {
			b.Fatal(err)
		}
	}
}
