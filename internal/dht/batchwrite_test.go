package dht

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// plainDHT restricts a substrate to the bare five-method DHT interface, so
// the package-level batch helpers must take their pooled fallback path.
type plainDHT struct {
	inner DHT
}

func (p plainDHT) Put(key Key, value any) error      { return p.inner.Put(key, value) }
func (p plainDHT) Get(key Key) (any, bool, error)    { return p.inner.Get(key) }
func (p plainDHT) Remove(key Key) error              { return p.inner.Remove(key) }
func (p plainDHT) Apply(key Key, fn ApplyFunc) error { return p.inner.Apply(key, fn) }
func (p plainDHT) Owner(key Key) (string, error)     { return p.inner.Owner(key) }

func TestPutBatchNativeAndFallbackAgree(t *testing.T) {
	for _, mode := range []string{"native", "fallback"} {
		t.Run(mode, func(t *testing.T) {
			local := MustNewLocal(8)
			d := DHT(local)
			if mode == "fallback" {
				d = plainDHT{inner: local}
			}
			const n = 40
			ops := make([]PutOp, n)
			for i := range ops {
				ops[i] = PutOp{Key: Key(fmt.Sprintf("k%d", i)), Value: i * i}
			}
			errs := PutBatch(d, ops, 4)
			if len(errs) != n {
				t.Fatalf("got %d errors, want %d", len(errs), n)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				if v, ok, err := local.Get(Key(fmt.Sprintf("k%d", i))); err != nil || !ok || v != i*i {
					t.Fatalf("k%d holds %v, %v, %v; want %d", i, v, ok, err, i*i)
				}
			}
		})
	}
}

func TestPutBatchEmptyAndErrors(t *testing.T) {
	local := MustNewLocal(4)
	if errs := PutBatch(local, nil, 4); len(errs) != 0 {
		t.Fatalf("empty batch returned %d errors", len(errs))
	}
	// Positional errors via the fallback path: a substrate whose Put fails
	// on one key must fail exactly that slot.
	script := newScriptDHT()
	script.mu.Lock()
	script.failures["bad"] = -1
	script.mu.Unlock()
	ops := []PutOp{{"good", 1}, {"bad", 2}, {"alsogood", 3}}
	errs := PutBatch(plainDHT{inner: script}, ops, 2)
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy slots errored: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], errScripted) {
		t.Errorf("failing slot = %v, want the scripted error", errs[1])
	}
}

func TestPoolWriteBatchBoundsConcurrency(t *testing.T) {
	const (
		n   = 64
		cap = 5
	)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	errs := poolWriteBatch(n, cap, func(i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return nil
	})
	if len(errs) != n {
		t.Fatalf("got %d errors, want %d", len(errs), n)
	}
	if p := peak.Load(); p > cap {
		t.Errorf("observed %d concurrent ops, cap is %d", p, cap)
	}
}

func TestPoolWriteBatchInlineSmallCases(t *testing.T) {
	// n==1 and maxInFlight==1 run inline on the calling goroutine, in order.
	var order []int
	errs := poolWriteBatch(3, 1, func(i int) error {
		order = append(order, i) // safe: inline execution is sequential
		return nil
	})
	if len(errs) != 3 || fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("inline execution order %v, errs %d", order, len(errs))
	}
	boom := errors.New("boom")
	errs = poolWriteBatch(1, 8, func(i int) error { return boom })
	if !errors.Is(errs[0], boom) {
		t.Fatalf("single-op batch error = %v, want boom", errs[0])
	}
}

func TestCountingChargesBatchWrites(t *testing.T) {
	c := NewCounting(MustNewLocal(4), nil)
	putOps := []PutOp{{"a", 1}, {"b", 2}, {"c", 3}}
	for _, err := range c.PutBatch(putOps, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range c.PutBatch([]PutOp{{"a", 4}, {"b", 5}}, 8) {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats().Snapshot()
	if s.DHTLookups != 5 {
		t.Errorf("DHTLookups = %d, want 5 (one per batched op, same as sequential)", s.DHTLookups)
	}
	if s.BatchProbes != 5 || s.BatchRounds != 2 {
		t.Errorf("BatchProbes/BatchRounds = %d/%d, want 5/2", s.BatchProbes, s.BatchRounds)
	}
	// High-water in-flight: min(len, cap) per round — 2 then 2.
	if s.MaxInFlight != 2 {
		t.Errorf("MaxInFlight = %d, want 2", s.MaxInFlight)
	}
}
