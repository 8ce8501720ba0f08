package wire

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/transport"
)

// Op is an op of the index's vocabulary (core.Op) in the form that crosses a
// byte-oriented DHT: its byte form, run against the bucket bytes stored under
// the key. It is what ByteDHT.Do hands the substrate below for a core op — the
// same wrapping ByteDHT.Apply gives a closure, as a value a socket can carry —
// so the decoding, the transform and the re-encoding all happen at the owner,
// and what comes back is the op's result in its own byte form, not the bucket.
type Op struct {
	Body []byte
}

var _ dht.Op = Op{}

func init() { transport.RegisterType(Op{}) }

// Run implements dht.Op over stored bytes. Body came off a socket: it is
// decoded and checked (core.DecodeOp) before the stored value is looked at,
// and an op that is refused, like a stored value that is not a bucket, fails
// with ErrMalformed and writes nothing.
func (o Op) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	op, err := core.DecodeOp(o.Body)
	if err != nil {
		return nil, false, nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	var stored []byte
	if exists {
		var ok bool
		if stored, ok = cur.([]byte); !ok {
			return nil, false, nil, fmt.Errorf("wire: substrate holds %T, want bytes", cur)
		}
	}
	data, write, res, err := op.RunBytes(stored, exists)
	if err != nil {
		return nil, false, nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if !write {
		return nil, false, res, nil
	}
	return data, true, res, nil
}

var _ dht.Doer = (*ByteDHT)(nil)

// Do implements dht.Doer. An op of the index's vocabulary travels when the
// substrate below can execute ops and the stored bytes are buckets: it is sent
// down as an Op and its result decoded here. Any other op, codec or substrate
// gets the op's Run through Apply — decoded for, re-encoded after, as every
// transform is.
func (b *ByteDHT) Do(key dht.Key, op dht.Op) (any, error) {
	inner, executes := b.inner.(dht.Doer)
	vocab, travels := op.(core.Op)
	if _, buckets := b.codec.(BucketCodec); !executes || !travels || !buckets {
		return dht.DoApply(b, key, op)
	}
	res, err := inner.Do(key, Op{Body: core.EncodeOp(vocab)})
	if err != nil {
		return nil, err
	}
	data, ok := res.([]byte)
	if !ok {
		return nil, fmt.Errorf("wire: op result is %T, want bytes", res)
	}
	out, err := vocab.DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return out, nil
}
