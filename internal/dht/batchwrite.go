package dht

// This file is the write-side counterpart of the GetBatch machinery in
// parallel.go: several independent Puts resolved in one logical round. The
// index uses it to ship relocated buckets — one PutBatch round instead of a
// sequential loop.

// PutOp is one keyed store inside a batch write.
type PutOp struct {
	Key   Key
	Value any
}

// BatchWriter is the optional write-side substrate interface: resolve several
// independent Puts in one call. Substrates with a cheap shared write path (the
// local map DHT) implement it natively; for everything else the package-level
// PutBatch falls back to a bounded worker pool over Put, so the caller pays
// one round instead of len(ops) sequential round trips.
//
// maxInFlight caps the number of concurrently outstanding operations;
// values below 1 select DefaultMaxInFlight. The returned error slice is
// positional: errs[i] is operation i's outcome, nil on success.
type BatchWriter interface {
	PutBatch(ops []PutOp, maxInFlight int) []error
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

// ApplyOp and ApplyBatch exist for cmd/mlight-perf alone: the harness's timed
// decorator compiles an ApplyBatch method against them and is frozen until
// ROADMAP item 6's second PR rewrites it, which deletes both. Nothing in the
// index sends a batch of closures; ApplyBatch is the plain per-key pool, one
// Apply per operation through Fan, and no substrate runs it natively.
type ApplyOp struct {
	Key Key
	Fn  ApplyFunc
}

// ApplyBatch runs every transform against d through the pool; see ApplyOp.
// Each Apply keeps its atomicity; the batch as a whole is not atomic.
func ApplyBatch(d DHT, ops []ApplyOp, maxInFlight int) []error {
	return poolWriteBatch(len(ops), maxInFlight, func(i int) error {
		return d.Apply(ops[i].Key, ops[i].Fn)
	})
}

// poolWriteBatch is the generic fallback of the write batches: one plain call
// per operation through Fan.
func poolWriteBatch(n, maxInFlight int, op func(i int) error) []error {
	errs := make([]error, n)
	Fan(n, maxInFlight, func(i int) { errs[i] = op(i) })
	return errs
}
