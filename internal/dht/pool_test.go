package dht_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
)

// blockingDHT is a Local whose Gets and Puts park for a moment, so a
// batch's workers are still inside their calls when the caller has run out
// of indexes to draw. It implements neither Batcher nor BatchWriter, so the
// batch helpers take Fan's worker pool. busy counts the calls in progress.
type blockingDHT struct {
	inner *dht.Local
	pause time.Duration
	busy  atomic.Int64
}

func (b *blockingDHT) Get(key dht.Key) (any, bool, error) {
	b.busy.Add(1)
	defer b.busy.Add(-1)
	time.Sleep(b.pause)
	return b.inner.Get(key)
}

func (b *blockingDHT) Put(key dht.Key, value any) error {
	b.busy.Add(1)
	defer b.busy.Add(-1)
	time.Sleep(b.pause)
	return b.inner.Put(key, value)
}

func (b *blockingDHT) Remove(key dht.Key) error                 { return b.inner.Remove(key) }
func (b *blockingDHT) Apply(key dht.Key, f dht.ApplyFunc) error { return b.inner.Apply(key, f) }
func (b *blockingDHT) Owner(key dht.Key) (string, error)        { return b.inner.Owner(key) }

// TestBatchPoolsLeaveNothingRunning drives the worker pool under every batch
// fallback — Fan itself, PutBatch and GetBatch over a substrate with neither
// batch interface — with more operations than maxInFlight and calls that
// block briefly. Each must return only once every call has, with every
// positional result in place, and leave no goroutine behind.
func TestBatchPoolsLeaveNothingRunning(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	const n, maxInFlight = 24, 4
	d := &blockingDHT{inner: dht.MustNewLocal(4), pause: time.Millisecond}
	keys := make([]dht.Key, n)
	ops := make([]dht.PutOp, n)
	for i := range keys {
		keys[i] = dht.Key(fmt.Sprintf("k-%d", i))
		ops[i] = dht.PutOp{Key: keys[i], Value: i}
	}
	checkIdle := func(t *testing.T) {
		t.Helper()
		if busy := d.busy.Load(); busy != 0 {
			t.Fatalf("%d calls still running after the batch returned", busy)
		}
	}

	t.Run("Fan", func(t *testing.T) {
		var done atomic.Int64
		dht.Fan(n, maxInFlight, func(int) {
			time.Sleep(d.pause)
			done.Add(1)
		})
		if got := done.Load(); got != n {
			t.Fatalf("Fan returned after %d of %d calls", got, n)
		}
	})
	t.Run("PutBatch", func(t *testing.T) {
		errs := dht.PutBatch(d, ops, maxInFlight)
		checkIdle(t)
		for i, err := range errs {
			if err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
	})
	t.Run("GetBatch", func(t *testing.T) {
		results := dht.GetBatch(d, keys, maxInFlight)
		checkIdle(t)
		for i, r := range results {
			if r.Err != nil || !r.Found || r.Value != i {
				t.Errorf("result %d = %+v, want value %d", i, r, i)
			}
		}
	})
}
