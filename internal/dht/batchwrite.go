package dht

// This file is the write-side counterpart of the GetBatch machinery in
// parallel.go: several independent Puts or Applies resolved in one logical
// round. The ingestion path uses it to ship relocated buckets (one PutBatch
// round instead of a sequential loop) and to run group-commit inserts (one
// Apply per destination leaf, many leaves in flight at once).

// PutOp is one keyed store inside a batch write.
type PutOp struct {
	Key   Key
	Value any
}

// ApplyOp is one keyed transform inside a batch apply. The function runs at
// the owning peer with the same atomicity contract as DHT.Apply; under a
// retrying decorator it may be re-invoked after a failed attempt (failed
// attempts never half-apply over the substrates in this repository), so
// closures must be safe to run again from scratch.
type ApplyOp struct {
	Key Key
	Fn  ApplyFunc
}

// BatchWriter is the optional write-side substrate interface: resolve
// several independent Puts or Applies in one call. Substrates with a cheap
// shared write path (the local map DHT) implement it natively; for
// everything else the package-level PutBatch/ApplyBatch fall back to a
// bounded worker pool over the plain methods, so the caller pays one round
// instead of len(ops) sequential round trips.
//
// maxInFlight caps the number of concurrently outstanding operations;
// values below 1 select DefaultMaxInFlight. The returned error slice is
// positional: errs[i] is operation i's outcome, nil on success.
type BatchWriter interface {
	PutBatch(ops []PutOp, maxInFlight int) []error
	ApplyBatch(ops []ApplyOp, maxInFlight int) []error
}

// PutBatch stores every operation against d in one logical round. When d
// implements BatchWriter the native implementation is used; otherwise up to
// maxInFlight concurrent Puts are issued through a bounded worker pool. The
// returned slice is positional and always has len(ops) entries.
func PutBatch(d DHT, ops []PutOp, maxInFlight int) []error {
	if b, ok := d.(BatchWriter); ok {
		return b.PutBatch(ops, maxInFlight)
	}
	return poolWriteBatch(len(ops), maxInFlight, func(i int) error {
		return d.Put(ops[i].Key, ops[i].Value)
	})
}

// ApplyBatch runs every transform against d in one logical round, with the
// same dispatch rule as PutBatch. Each individual Apply keeps its atomicity;
// the batch as a whole is not atomic — operations on distinct keys land
// independently, exactly as they would issued one by one.
func ApplyBatch(d DHT, ops []ApplyOp, maxInFlight int) []error {
	if b, ok := d.(BatchWriter); ok {
		return b.ApplyBatch(ops, maxInFlight)
	}
	return poolWriteBatch(len(ops), maxInFlight, func(i int) error {
		return d.Apply(ops[i].Key, ops[i].Fn)
	})
}

// poolWriteBatch is the generic fallback shared by the two write batches: one
// plain call per operation through Fan.
func poolWriteBatch(n, maxInFlight int, op func(i int) error) []error {
	errs := make([]error, n)
	Fan(n, maxInFlight, func(i int) { errs[i] = op(i) })
	return errs
}
