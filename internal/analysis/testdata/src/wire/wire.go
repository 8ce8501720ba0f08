// Package wire is golden-test input for the decorator-completeness pass's
// cross-package case: the wrapper lives here, but the substrate and
// capability interfaces are resolved in the imported dht package's scope.
package wire

import "example.com/dht"

// Codec wraps a dht.DHT and forwards the batch capabilities and ops but
// forgets SpanGetter — the exact gap the real ByteDHT had.
type Codec struct{ inner dht.DHT } // want "does not implement dht.SpanGetter"

func (c *Codec) Put(k dht.Key, v any) error       { return c.inner.Put(k, v) }
func (c *Codec) Get(k dht.Key) (any, bool, error) { return c.inner.Get(k) }
func (c *Codec) Remove(k dht.Key) error           { return c.inner.Remove(k) }
func (c *Codec) GetBatch(ks []dht.Key) ([]any, []error) {
	vals := make([]any, len(ks))
	errs := make([]error, len(ks))
	for i, k := range ks {
		vals[i], _, errs[i] = c.inner.Get(k)
	}
	return vals, errs
}
func (c *Codec) PutBatch(ks []dht.Key, vs []any) []error {
	errs := make([]error, len(ks))
	for i, k := range ks {
		errs[i] = c.inner.Put(k, vs[i])
	}
	return errs
}
func (c *Codec) Do(k dht.Key, op any) (any, error) {
	if d, ok := c.inner.(dht.Doer); ok {
		return d.Do(k, op)
	}
	return nil, nil
}
