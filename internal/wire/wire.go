// Package wire provides the byte-level encoding of the index's stored
// values. Real DHT services (OpenDHT, the paper's deployment target) store
// opaque byte strings, not in-process objects; an over-DHT index therefore
// has to serialise its buckets at the DHT boundary. ByteDHT wraps any
// substrate and round-trips every stored value through this package's
// compact binary format, proving the index depends on nothing but bytes. The
// format itself is written down, and implemented, once: beside the columnar
// arenas it fills, in core/columnar.go.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// ErrMalformed reports undecodable bytes.
var ErrMalformed = errors.New("wire: malformed encoding")

// AppendPoint appends the encoding of p to buf. Allocation-free when buf
// has capacity (the codec fast path — callers reuse scratch buffers).
//
//lint:hotpath
func AppendPoint(buf []byte, p spatial.Point) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, c := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	return buf
}

// DecodePoint decodes a point, returning the remaining bytes.
func DecodePoint(buf []byte) (spatial.Point, []byte, error) {
	dims, n := binary.Uvarint(buf)
	if n <= 0 || dims > 1<<16 {
		return nil, nil, fmt.Errorf("%w: point dims", ErrMalformed)
	}
	buf = buf[n:]
	if len(buf) < int(dims)*8 {
		return nil, nil, fmt.Errorf("%w: point truncated", ErrMalformed)
	}
	p := make(spatial.Point, dims)
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return p, buf[dims*8:], nil
}

// AppendRecord appends the encoding of r to buf.
func AppendRecord(buf []byte, r spatial.Record) []byte { return core.AppendRecord(buf, r) }

// DecodeRecord decodes a record, returning the remaining bytes.
func DecodeRecord(buf []byte) (spatial.Record, []byte, error) {
	key, rest, err := DecodePoint(buf)
	if err != nil {
		return spatial.Record{}, nil, err
	}
	size, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < size {
		return spatial.Record{}, nil, fmt.Errorf("%w: record data", ErrMalformed)
	}
	rest = rest[n:]
	return spatial.Record{Key: key, Data: string(rest[:size])}, rest[size:], nil
}

// MarshalBucket encodes a core bucket.
func MarshalBucket(b core.Bucket) []byte { return b.Marshal() }

// UnmarshalBucket decodes a core bucket. The format and its decoder live
// beside the columnar arenas they fill (core.UnmarshalBucket); malformed
// bytes are reported as ErrMalformed here.
func UnmarshalBucket(buf []byte) (core.Bucket, error) {
	b, err := core.UnmarshalBucket(buf)
	if err != nil {
		return core.Bucket{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return b, nil
}

// BucketCodec is the Codec for core buckets.
type BucketCodec struct{}

var (
	_ Codec          = BucketCodec{}
	_ dht.DeltaCodec = BucketCodec{}
)

// Marshal implements Codec.
func (BucketCodec) Marshal(v any) ([]byte, error) {
	b, ok := v.(core.Bucket)
	if !ok {
		return nil, fmt.Errorf("wire: BucketCodec cannot encode %T", v)
	}
	return MarshalBucket(b), nil
}

// Unmarshal implements Codec.
func (BucketCodec) Unmarshal(data []byte) (any, error) {
	return UnmarshalBucket(data)
}

// AppendDelta implements dht.DeltaCodec over the bucket format's delta
// (core.Bucket.AppendDelta): a bucket that is the one it replaces plus
// appended records journals as those records.
//
//lint:hotpath
func (BucketCodec) AppendDelta(buf []byte, prev, next any) ([]byte, bool) {
	p, ok := prev.(core.Bucket)
	if !ok {
		return buf, false
	}
	n, ok := next.(core.Bucket)
	if !ok {
		return buf, false
	}
	return n.AppendDelta(buf, p)
}

// ApplyDelta implements dht.DeltaCodec.
func (BucketCodec) ApplyDelta(base any, delta []byte) (any, error) {
	b, ok := base.(core.Bucket)
	if !ok {
		return nil, fmt.Errorf("%w: delta over %T, want a bucket", ErrMalformed, base)
	}
	next, err := b.Extend(delta)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return next, nil
}

// Codec converts between in-process values and bytes.
type Codec interface {
	Marshal(v any) ([]byte, error)
	Unmarshal(data []byte) (any, error)
}

// ByteDHT wraps a substrate so that every stored value crosses the
// interface as bytes, the way a real deployment over OpenDHT would work.
type ByteDHT struct {
	inner dht.DHT
	codec Codec
}

var (
	_ dht.DHT         = (*ByteDHT)(nil)
	_ dht.Batcher     = (*ByteDHT)(nil)
	_ dht.BatchWriter = (*ByteDHT)(nil)
	_ dht.SpanGetter  = (*ByteDHT)(nil)
)

// NewByteDHT builds the adapter.
func NewByteDHT(inner dht.DHT, codec Codec) *ByteDHT {
	return &ByteDHT{inner: inner, codec: codec}
}

// Put implements dht.DHT.
func (b *ByteDHT) Put(key dht.Key, value any) error {
	data, err := b.codec.Marshal(value)
	if err != nil {
		return err
	}
	return b.inner.Put(key, data)
}

// Get implements dht.DHT.
func (b *ByteDHT) Get(key dht.Key) (any, bool, error) {
	return b.decodeGet(b.inner.Get(key))
}

// GetSpan implements dht.SpanGetter: trace attribution is forwarded to the
// inner substrate (which may itself be a decorator recording spans), and
// the returned payload is decoded exactly as Get decodes it. Without this
// forwarding, wrapping a traced stack in ByteDHT would silently detach
// every retry/attempt span from its query.
func (b *ByteDHT) GetSpan(key dht.Key, parent trace.SpanID) (any, bool, error) {
	return b.decodeGet(dht.GetWithSpan(b.inner, key, parent))
}

// decodeGet translates one Get-shaped result from stored bytes.
func (b *ByteDHT) decodeGet(v any, found bool, err error) (any, bool, error) {
	if err != nil || !found {
		return nil, found, err
	}
	data, ok := v.([]byte)
	if !ok {
		return nil, false, fmt.Errorf("wire: substrate returned %T, want bytes", v)
	}
	out, err := b.codec.Unmarshal(data)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Remove implements dht.DHT.
func (b *ByteDHT) Remove(key dht.Key) error {
	return b.inner.Remove(key)
}

// Apply implements dht.DHT: the stored bytes are decoded for the transform
// and its result re-encoded, all at the owning peer.
func (b *ByteDHT) Apply(key dht.Key, fn dht.ApplyFunc) error {
	var codecErr error
	if err := b.inner.Apply(key, b.transcode(fn, &codecErr)); err != nil {
		return err
	}
	return codecErr
}

// transcode wraps fn with the decode/re-encode shim. A codec failure leaves
// the stored bytes intact and is reported through *codecErr, which every run
// assigns afresh: a re-issued attempt must not inherit an earlier run's error.
func (b *ByteDHT) transcode(fn dht.ApplyFunc, codecErr *error) dht.ApplyFunc {
	return func(cur any, exists bool) (any, bool) {
		*codecErr = nil
		var decoded any
		if exists {
			data, ok := cur.([]byte)
			if !ok {
				*codecErr = fmt.Errorf("wire: substrate holds %T, want bytes", cur)
				return cur, true
			}
			if decoded, *codecErr = b.codec.Unmarshal(data); *codecErr != nil {
				return cur, true
			}
		}
		next, keep := fn(decoded, exists)
		if !keep {
			return nil, false
		}
		encoded, err := b.codec.Marshal(next)
		if err != nil {
			*codecErr = err
			return cur, exists
		}
		return encoded, true
	}
}

// Owner implements dht.DHT.
func (b *ByteDHT) Owner(key dht.Key) (string, error) {
	return b.inner.Owner(key)
}

// GetBatch implements dht.Batcher: the whole batch is forwarded to the inner
// substrate's batch path (keys need no encoding), then each returned payload
// is decoded in place.
func (b *ByteDHT) GetBatch(keys []dht.Key, maxInFlight int) []dht.BatchResult {
	results := dht.GetBatch(b.inner, keys, maxInFlight)
	for i := range results {
		if results[i].Err != nil || !results[i].Found {
			continue
		}
		data, ok := results[i].Value.([]byte)
		if !ok {
			results[i] = dht.BatchResult{Err: fmt.Errorf("wire: substrate returned %T, want bytes", results[i].Value)}
			continue
		}
		decoded, err := b.codec.Unmarshal(data)
		if err != nil {
			results[i] = dht.BatchResult{Err: err}
			continue
		}
		results[i].Value = decoded
	}
	return results
}

// PutBatch implements dht.BatchWriter with encode-once semantics: every
// value is marshalled exactly once up front, on the caller's goroutine;
// operations whose values fail to encode get their positional error without
// touching the substrate, and only the encodable remainder is forwarded as
// one inner batch round.
func (b *ByteDHT) PutBatch(ops []dht.PutOp, maxInFlight int) []error {
	errs := make([]error, len(ops))
	encoded := make([]dht.PutOp, 0, len(ops))
	// positions[j] is the caller-visible index of forwarded operation j.
	positions := make([]int, 0, len(ops))
	for i, op := range ops {
		data, err := b.codec.Marshal(op.Value)
		if err != nil {
			errs[i] = err
			continue
		}
		encoded = append(encoded, dht.PutOp{Key: op.Key, Value: data})
		positions = append(positions, i)
	}
	if len(encoded) == 0 {
		return errs
	}
	inner := dht.PutBatch(b.inner, encoded, maxInFlight)
	for j, i := range positions {
		errs[i] = inner[j]
	}
	return errs
}

// ApplyBatch implements dht.BatchWriter: each transform is wrapped with the
// same decode/re-encode shim as Apply (run at the owning peer), and the
// wrapped batch is forwarded as one inner round. Codec failures surface as
// that operation's positional error while leaving the stored bytes intact.
func (b *ByteDHT) ApplyBatch(ops []dht.ApplyOp, maxInFlight int) []error {
	wrapped := make([]dht.ApplyOp, len(ops))
	codecErrs := make([]error, len(ops))
	for i, op := range ops {
		wrapped[i] = dht.ApplyOp{Key: op.Key, Fn: b.transcode(op.Fn, &codecErrs[i])}
	}
	errs := dht.ApplyBatch(b.inner, wrapped, maxInFlight)
	for i := range errs {
		if errs[i] == nil {
			errs[i] = codecErrs[i]
		}
	}
	return errs
}

// Range implements dht.Enumerator when the substrate does, decoding each
// value.
func (b *ByteDHT) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := b.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	var decodeErr error
	err := e.Range(func(k dht.Key, v any) bool {
		data, isBytes := v.([]byte)
		if !isBytes {
			decodeErr = fmt.Errorf("wire: substrate holds %T, want bytes", v)
			return false
		}
		decoded, err := b.codec.Unmarshal(data)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(k, decoded)
	})
	if err != nil {
		return err
	}
	return decodeErr
}
