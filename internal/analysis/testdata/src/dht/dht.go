// Package dht is golden-test input for the decorator-completeness pass: a
// structural stand-in for the real substrate package, declaring the DHT
// interface (identified by its Put/Get/Remove shape) and the optional
// capability interfaces looked up by name in this package's scope.
package dht

// Key is the lookup key type.
type Key string

// DHT is the substrate contract.
type DHT interface {
	Put(k Key, v any) error
	Get(k Key) (any, bool, error)
	Remove(k Key) error
}

// Batcher is the optional batched-read capability.
type Batcher interface {
	GetBatch(ks []Key) ([]any, []error)
}

// BatchWriter is the optional batched-write capability.
type BatchWriter interface {
	PutBatch(ks []Key, vs []any) []error
}

// SpanGetter is the optional trace-attribution capability.
type SpanGetter interface {
	GetSpan(k Key, parent int64) (any, bool, error)
}

// Doer is the optional ops-as-data capability.
type Doer interface {
	Do(k Key, op any) (any, error)
}

// Complete forwards every capability and passes the check.
type Complete struct{ inner DHT }

func (c *Complete) Put(k Key, v any) error       { return c.inner.Put(k, v) }
func (c *Complete) Get(k Key) (any, bool, error) { return c.inner.Get(k) }
func (c *Complete) Remove(k Key) error           { return c.inner.Remove(k) }
func (c *Complete) GetBatch(ks []Key) ([]any, []error) {
	errs := make([]error, len(ks))
	vals := make([]any, len(ks))
	for i, k := range ks {
		vals[i], _, errs[i] = c.inner.Get(k)
	}
	return vals, errs
}
func (c *Complete) PutBatch(ks []Key, vs []any) []error {
	errs := make([]error, len(ks))
	for i, k := range ks {
		errs[i] = c.inner.Put(k, vs[i])
	}
	return errs
}
func (c *Complete) GetSpan(k Key, parent int64) (any, bool, error) {
	_ = parent
	return c.inner.Get(k)
}

func (c *Complete) Do(k Key, op any) (any, error) {
	if d, ok := c.inner.(Doer); ok {
		return d.Do(k, op)
	}
	return nil, nil
}

// Partial wraps the substrate but forwards no capability: one finding per
// missing interface, all anchored at the type declaration.
type Partial struct{ inner DHT } // want "does not implement dht.Batcher" "does not implement dht.BatchWriter" "does not implement dht.SpanGetter" "does not implement dht.Doer"

func (p *Partial) Put(k Key, v any) error       { return p.inner.Put(k, v) }
func (p *Partial) Get(k Key) (any, bool, error) { return p.inner.Get(k) }
func (p *Partial) Remove(k Key) error           { return p.inner.Remove(k) }

// Narrow is deliberately capability-free, like the real dhttest.Flaky; the
// single directive below covers all four findings at this declaration.
//
//lint:allow decoratorcomplete deliberately narrow so per-key paths stay exercised
type Narrow struct{ inner DHT }

func (n *Narrow) Put(k Key, v any) error       { return n.inner.Put(k, v) }
func (n *Narrow) Get(k Key) (any, bool, error) { return n.inner.Get(k) }
func (n *Narrow) Remove(k Key) error           { return n.inner.Remove(k) }

// Plain holds no substrate field and is out of the pass's scope.
type Plain struct{ hits int }

func (p *Plain) Bump() int { p.hits++; return p.hits }
