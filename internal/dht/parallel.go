package dht

import (
	"sync"
	"sync/atomic"
)

// BatchResult is the outcome of one key's Get inside a batch. Results are
// positional: result i always corresponds to keys[i], whatever order the
// probes actually completed in.
type BatchResult struct {
	Value any
	Found bool
	Err   error
}

// Batcher is an optional substrate interface: resolve several independent
// Gets in one call. Substrates with a cheaper answer than one Get per key
// implement it natively — the local map DHT reads a shard's keys under one
// lock, a dialed overlay sends an owner's keys in one frame; for everything
// else GetBatch falls back to a bounded worker pool over the plain Get
// method, so the caller's latency is one round instead of len(keys)
// sequential round trips. It is the range engine's substrate call: a round
// of Algorithm 3 is one GetBatch.
//
// maxInFlight caps the number of concurrently outstanding probes; values
// below 1 select a sensible default. Implementations must preserve the
// positional correspondence between keys and results.
type Batcher interface {
	GetBatch(keys []Key, maxInFlight int) []BatchResult
}

// DefaultMaxInFlight is the probe-concurrency cap used when a caller does
// not specify one.
const DefaultMaxInFlight = 16

// GetBatch resolves every key against d in one logical round. When d
// implements Batcher the native implementation is used; otherwise up to
// maxInFlight concurrent Gets are issued through Fan. The returned slice is
// positional and always has len(keys) entries.
//
// All implementations of DHT in this repository are safe for concurrent
// use, which is what makes the fallback sound; see the ConcurrentOverlap
// conformance case in dhttest.
func GetBatch(d DHT, keys []Key, maxInFlight int) []BatchResult {
	if b, ok := d.(Batcher); ok {
		return b.GetBatch(keys, maxInFlight)
	}
	return FanGets(d, keys, maxInFlight)
}

// FanGets is the generic batch: one Get per key through Fan. It is what
// GetBatch falls back to, and what a Batcher with no cheaper answer for some
// of its keys calls for them.
func FanGets(d DHT, keys []Key, maxInFlight int) []BatchResult {
	results := make([]BatchResult, len(keys))
	Fan(len(keys), maxInFlight, func(i int) {
		results[i].Value, results[i].Found, results[i].Err = d.Get(keys[i])
	})
	return results
}

// Fan runs fn(0) … fn(n-1) on min(n, maxInFlight) workers (values below 1
// select DefaultMaxInFlight) and returns once every call has. With nothing to
// overlap — one call, or a cap of one — the calls run inline and in order on
// the calling goroutine. Otherwise the workers draw the next index until
// none is left, and the caller is one of them: calls that never block (the
// zero-latency simulated network) then mostly run on the caller's stack,
// already as deep as they need, where a goroutine per call grew a fresh
// stack copy by copy for each — a third of a probe's cost there — and calls
// that do block hand the remaining indexes to the other workers.
func Fan(n, maxInFlight int, fn func(i int)) {
	if maxInFlight < 1 {
		maxInFlight = DefaultMaxInFlight
	}
	if n <= 1 || maxInFlight == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	for w := min(n, maxInFlight); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
