package dht

import (
	"mlight/internal/metrics"
	"mlight/internal/trace"
)

// Resilient decorates a DHT with the fault-tolerance layer the substrate
// interface deliberately leaves out: transient failures (dropped messages,
// unreachable peers, stale routing) are retried with capped exponential
// backoff under a per-operation attempt budget, while per-owner circuit
// breakers shed load from peers that keep failing. Terminal errors — bad
// response types, dimension mismatches, an empty overlay — pass through
// untouched on the first attempt.
//
// Composition: Resilient sits *below* Counting in an index's decorator
// chain (Counting(Resilient(substrate))), so the paper's logical
// DHT-operation accounting is unchanged — one Get is one logical operation
// no matter how many attempts it took. The physical overhead is metered
// separately in a metrics.ResilienceStats.
//
// Retries are safe over the substrates in this repository: the simulated
// network fails calls before the remote handler executes, so a failed
// operation never half-applied. Over a real network Apply would be
// at-least-once under retries; idempotent transforms are the caller's
// responsibility there.
type Resilient struct {
	inner   DHT
	retrier *Retrier
	tc      *trace.Collector
}

var (
	_ DHT         = (*Resilient)(nil)
	_ Batcher     = (*Resilient)(nil)
	_ BatchWriter = (*Resilient)(nil)
	_ Enumerator  = (*Resilient)(nil)
	_ SpanGetter  = (*Resilient)(nil)
	_ Doer        = (*Resilient)(nil)
)

// NewResilient wraps inner under policy, charging retry and breaker
// activity to stats (nil allocates a private counter set, retrievable via
// Stats).
func NewResilient(inner DHT, policy RetryPolicy, stats *metrics.ResilienceStats) *Resilient {
	return &Resilient{inner: inner, retrier: NewRetrier(policy, stats)}
}

// Inner returns the wrapped DHT.
func (r *Resilient) Inner() DHT { return r.inner }

// Stats returns the resilience counters.
func (r *Resilient) Stats() *metrics.ResilienceStats { return r.retrier.Stats() }

// Retrier returns the underlying retry executor (shared breaker state).
func (r *Resilient) Retrier() *Retrier { return r.retrier }

// SetTracer attaches a trace collector: retry attempts are recorded as
// KindAttempt spans (see Retrier.DoTraced for the recording rule). A nil
// collector — the default — records nothing.
func (r *Resilient) SetTracer(c *trace.Collector) { r.tc = c }

// owner resolves the breaker key for a DHT key.
func (r *Resilient) owner(key Key) string { return r.retrier.policy.OwnerOf(key) }

// Put implements DHT.
func (r *Resilient) Put(key Key, value any) error {
	return r.retrier.Do(r.owner(key), func() error {
		return r.inner.Put(key, value)
	})
}

// Get implements DHT.
func (r *Resilient) Get(key Key) (value any, found bool, err error) {
	return r.GetSpan(key, 0)
}

// GetSpan implements SpanGetter: the retry loop records each physical
// attempt as a KindAttempt span under parent (all attempts when a parent is
// given; retries only when flat — see Retrier.DoTraced), and the span is
// forwarded to the layer below.
func (r *Resilient) GetSpan(key Key, parent trace.SpanID) (value any, found bool, err error) {
	err = r.retrier.DoTraced(r.owner(key), r.tc, parent, func() error {
		var e error
		value, found, e = GetWithSpan(r.inner, key, parent)
		return e
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Remove implements DHT.
func (r *Resilient) Remove(key Key) error {
	return r.retrier.Do(r.owner(key), func() error {
		return r.inner.Remove(key)
	})
}

// Apply implements DHT.
func (r *Resilient) Apply(key Key, fn ApplyFunc) error {
	return r.retrier.Do(r.owner(key), func() error {
		return r.inner.Apply(key, fn)
	})
}

// Do implements Doer, retried exactly like Apply: an attempt that failed may
// have executed at the owner (its reply was lost), so the op runs at least
// once — the contract ApplyFunc states for closures.
func (r *Resilient) Do(key Key, op Op) (result any, err error) {
	err = r.retrier.Do(r.owner(key), func() error {
		var e error
		result, e = Do(r.inner, key, op)
		return e
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// Owner implements DHT. Ownership resolution routes through the overlay
// like any other operation, so it is retried the same way.
func (r *Resilient) Owner(key Key) (owner string, err error) {
	err = r.retrier.Do(r.owner(key), func() error {
		var e error
		owner, e = r.inner.Owner(key)
		return e
	})
	if err != nil {
		return "", err
	}
	return owner, nil
}

// GetBatch implements Batcher: the whole batch is issued through the inner
// substrate's batch path once, then — composing with the round-synchronous
// query engine — retries happen per key inside this same batch round: only
// the keys whose probes failed retryably are re-issued (as progressively
// smaller sub-batches), with one backoff between retry waves, until they
// succeed or exhaust the attempt budget. Results stay positional.
func (r *Resilient) GetBatch(keys []Key, maxInFlight int) []BatchResult {
	results := make([]BatchResult, len(keys))
	errs := r.retrier.waves(len(keys), func(i int) Key { return keys[i] }, r.tc, func(idx []int) []error {
		sub := make([]Key, len(idx))
		for j, i := range idx {
			sub[j] = keys[i]
		}
		errs := make([]error, len(idx))
		for j, br := range GetBatch(r.inner, sub, maxInFlight) {
			results[idx[j]], errs[j] = br, br.Err
		}
		return errs
	})
	for i, err := range errs {
		results[i].Err = err
	}
	return results
}

// PutBatch implements BatchWriter with the same per-key retry-wave scheme as
// GetBatch: the whole batch is issued through the inner substrate's batch
// path once, then only the operations that failed retryably are re-issued as
// progressively smaller sub-batches with one backoff between waves. Errors
// stay positional.
func (r *Resilient) PutBatch(ops []PutOp, maxInFlight int) []error {
	return r.retrier.waves(len(ops), func(i int) Key { return ops[i].Key }, r.tc, func(idx []int) []error {
		sub := make([]PutOp, len(idx))
		for j, i := range idx {
			sub[j] = ops[i]
		}
		return PutBatch(r.inner, sub, maxInFlight)
	})
}

// Range implements Enumerator when the wrapped DHT does; enumeration is a
// measurement aid and is not retried.
func (r *Resilient) Range(fn func(key Key, value any) bool) error {
	e, ok := r.inner.(Enumerator)
	if !ok {
		return ErrNotEnumerable
	}
	return e.Range(fn)
}
