package dht

import (
	"errors"

	"mlight/internal/metrics"
	"mlight/internal/trace"
)

// ErrNotEnumerable is returned by Counting.Range when the wrapped substrate
// does not support enumeration.
var ErrNotEnumerable = errors.New("dht: substrate cannot enumerate entries")

// Counting decorates a DHT and counts every logical operation in an
// IndexStats — the measurement point for the paper's "DHT-lookup cost"
// (Figs. 5a/5c, 7a). Each Put/Get/Remove/Apply is one DHT operation: it
// begins with a DHT-lookup to locate the owner, which is the unit the paper
// counts.
type Counting struct {
	inner DHT
	stats *metrics.IndexStats
}

var (
	_ DHT         = (*Counting)(nil)
	_ Batcher     = (*Counting)(nil)
	_ BatchWriter = (*Counting)(nil)
	_ SpanGetter  = (*Counting)(nil)
	_ Doer        = (*Counting)(nil)
)

// NewCounting wraps inner, charging operations to stats. A nil stats
// allocates a private counter set, retrievable via Stats.
func NewCounting(inner DHT, stats *metrics.IndexStats) *Counting {
	if stats == nil {
		stats = &metrics.IndexStats{}
	}
	return &Counting{inner: inner, stats: stats}
}

// Inner returns the wrapped DHT.
func (c *Counting) Inner() DHT { return c.inner }

// Stats returns the counter set operations are charged to.
func (c *Counting) Stats() *metrics.IndexStats { return c.stats }

// Put implements DHT.
func (c *Counting) Put(key Key, value any) error {
	c.stats.DHTLookups.Inc()
	return c.inner.Put(key, value)
}

// Get implements DHT.
func (c *Counting) Get(key Key) (any, bool, error) {
	c.stats.DHTLookups.Inc()
	return c.inner.Get(key)
}

// GetSpan implements SpanGetter: counted exactly like Get, with the trace
// span forwarded to the layer below.
func (c *Counting) GetSpan(key Key, parent trace.SpanID) (any, bool, error) {
	c.stats.DHTLookups.Inc()
	return GetWithSpan(c.inner, key, parent)
}

// GetBatch implements Batcher: every probe in the batch is one logical DHT
// operation, charged exactly as len(keys) sequential Gets would be —
// batching overlaps execution, it does not change the paper's bandwidth
// accounting. The batch itself and its high-water concurrency are metered
// separately.
func (c *Counting) GetBatch(keys []Key, maxInFlight int) []BatchResult {
	c.observeBatch(len(keys), maxInFlight)
	return GetBatch(c.inner, keys, maxInFlight)
}

// PutBatch implements BatchWriter: every store in the batch is one logical
// DHT operation, charged exactly as len(ops) sequential Puts would be —
// batching overlaps execution, it does not change the paper's bandwidth
// accounting. The batch round and its concurrency are metered like GetBatch.
func (c *Counting) PutBatch(ops []PutOp, maxInFlight int) []error {
	c.observeBatch(len(ops), maxInFlight)
	return PutBatch(c.inner, ops, maxInFlight)
}

// observeBatch charges one batch round of n logical operations.
func (c *Counting) observeBatch(n, maxInFlight int) {
	c.stats.DHTLookups.Add(int64(n))
	c.stats.BatchProbes.Add(int64(n))
	c.stats.BatchRounds.Inc()
	inFlight := n
	if maxInFlight >= 1 && maxInFlight < inFlight {
		inFlight = maxInFlight
	}
	c.stats.MaxInFlight.Observe(int64(inFlight))
}

// Remove implements DHT.
func (c *Counting) Remove(key Key) error {
	c.stats.DHTLookups.Inc()
	return c.inner.Remove(key)
}

// Apply implements DHT.
func (c *Counting) Apply(key Key, fn ApplyFunc) error {
	c.stats.DHTLookups.Inc()
	return c.inner.Apply(key, fn)
}

// Do implements Doer: one logical DHT operation, as the Apply it stands for
// is — whether the op travels or runs as a closure below.
func (c *Counting) Do(key Key, op Op) (any, error) {
	c.stats.DHTLookups.Inc()
	return Do(c.inner, key, op)
}

// Owner implements DHT. Ownership inspection is a measurement aid, not a
// data-path operation, so it is not counted.
func (c *Counting) Owner(key Key) (string, error) {
	return c.inner.Owner(key)
}

// Range implements Enumerator when the wrapped DHT does; it is a
// measurement aid and is not counted.
func (c *Counting) Range(fn func(key Key, value any) bool) error {
	e, ok := c.inner.(Enumerator)
	if !ok {
		return ErrNotEnumerable
	}
	return e.Range(fn)
}
