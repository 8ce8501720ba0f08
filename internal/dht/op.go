package dht

// This file is the transform in the form that can travel. An ApplyFunc is a
// closure, and a closure stops at a socket: over TCP the overlays run it
// client-side between a read of the whole value and a write of it back
// (RemoteApply). An Op is the same transform as a plain value — "append these
// records if you are this leaf" — which a substrate that can execute it at the
// key's owner sends as one small message and answers with the op's result
// alone. The capability is optional, shaped like Batcher and GetBatch: a
// substrate that has it implements Doer, every other one gets the op's Run as
// the ApplyFunc it always took.

// Op is a transform as data. Implementations are plain values; those that are
// to cross a socket are registered with the transport codec.
type Op interface {
	// Run is the body an ApplyFunc would have: cur is the value stored under
	// the key (nil with exists=false when absent). write says whether next is
	// to replace it — false leaves the stored value exactly as it is, which
	// an owner executing the op takes literally: no write, no version bump,
	// no journal record. result is what the caller of Do gets back. A non-nil
	// err (the op itself is malformed, the stored value is not what the op
	// works on) leaves the key untouched and fails the Do.
	//
	// Like an ApplyFunc, Run may be executed more than once for one Do (a
	// retry after a failed attempt, a lost CAS on the closure path); only the
	// last run's next was stored and only its result is returned.
	Run(cur any, exists bool) (next any, write bool, result any, err error)
}

// Doer is the optional substrate interface for ops: execute op at the owner
// of key, atomically with respect to every other write of the key, and return
// its result. Decorators forward it (the decoratorcomplete lint pass checks
// that they do — one that does not silently sends every insert down the
// read-modify-write path again).
type Doer interface {
	Do(key Key, op Op) (result any, err error)
}

// Do executes op on key: natively when d is a Doer, and otherwise as
// d.Apply(key, op.Run) — the path every substrate has.
func Do(d DHT, key Key, op Op) (any, error) {
	if doer, ok := d.(Doer); ok {
		return doer.Do(key, op)
	}
	return DoApply(d, key, op)
}

// DoApply executes op through d.Apply, for a substrate (or on a transport)
// that runs transforms as closures.
func DoApply(d DHT, key Key, op Op) (any, error) {
	var result any
	var opErr error
	if err := d.Apply(key, AsApply(op, &result, &opErr)); err != nil {
		return nil, err
	}
	return result, opErr
}

// AsApply returns op's Run as an ApplyFunc. Every run assigns *result and
// *opErr whole, as ApplyFunc's contract asks of a closure's outputs; a run
// that fails or writes nothing hands the stored value back as it found it.
func AsApply(op Op, result *any, opErr *error) ApplyFunc {
	return func(cur any, exists bool) (any, bool) {
		next, write, res, err := op.Run(cur, exists)
		*result, *opErr = res, err
		if err != nil || !write {
			return cur, exists
		}
		return next, true
	}
}
