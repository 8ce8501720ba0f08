package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/spatial"
)

// mixedDimsBucket is a two-record bucket whose records disagree on
// dimensionality: keys (0.1, 0.2) and (0.3). The columnar arenas hold one
// dimensionality per bucket, so this must not decode.
func mixedDimsBucket() []byte {
	label := bitlabel.Root(2)
	buf := []byte{byte(label.Len())}
	buf = binary.LittleEndian.AppendUint64(buf, label.Bits())
	buf = binary.AppendUvarint(buf, 2)
	buf = AppendRecord(buf, spatial.Record{Key: spatial.Point{0.1, 0.2}, Data: "a"})
	return AppendRecord(buf, spatial.Record{Key: spatial.Point{0.3}, Data: "b"})
}

// FuzzUnmarshalBucket: arbitrary bytes never panic; anything that decodes
// holds, record by record, exactly what a record-at-a-time decode of the
// same bytes yields, and re-encodes to a canonical form — bytes that decode
// to the same bucket and encode to themselves again.
func FuzzUnmarshalBucket(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalBucket(core.Bucket{Label: bitlabel.Root(2)}))
	f.Add(MarshalBucket(core.NewBucket(bitlabel.MustParse("0011011"), []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
	})))
	f.Add(mixedDimsBucket())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBucket(data)
		if err != nil {
			return
		}
		// The header is a fixed nine bytes, then the count, then the records.
		_, n := binary.Uvarint(data[9:])
		rest := data[9+n:]
		for i := 0; i < b.Load(); i++ {
			var want spatial.Record
			if want, rest, err = DecodeRecord(rest); err != nil {
				t.Fatalf("record %d of an accepted bucket: %v", i, err)
			}
			if got := b.RecordAt(i); !sameRecord(got, want) {
				t.Fatalf("record %d = %v, a record-at-a-time decode gives %v", i, got, want)
			}
			if b.KeyAt(i).Dim() != b.KeyAt(0).Dim() {
				t.Fatalf("record %d has %d dims, record 0 has %d", i, b.KeyAt(i).Dim(), b.KeyAt(0).Dim())
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes of an accepted bucket belong to no record", len(rest))
		}
		canon := MarshalBucket(b)
		again, err := UnmarshalBucket(canon)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Label != b.Label || again.Load() != b.Load() {
			t.Fatal("re-decode differs")
		}
		for i := 0; i < b.Load(); i++ {
			if !sameRecord(again.RecordAt(i), b.RecordAt(i)) {
				t.Fatalf("record %d differs after re-decode", i)
			}
		}
		if !bytes.Equal(MarshalBucket(again), canon) {
			t.Fatal("the canonical encoding is not a fixed point")
		}
	})
}

// sameRecord compares coordinates by their bits: NaN is a value an arbitrary
// byte string can hold.
func sameRecord(a, b spatial.Record) bool {
	if a.Data != b.Data || len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Key {
		if math.Float64bits(a.Key[i]) != math.Float64bits(b.Key[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRecord: arbitrary bytes never panic.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(AppendRecord(nil, spatial.Record{Key: spatial.Point{0.1, 0.9}, Data: "abc"}))
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("rest grew")
		}
		_ = rec
	})
}

// FuzzBucketDelta: a delta is bytes from a log, so every length in it is a
// claim. Applied to any bucket — or to no bucket at all — arbitrary bytes
// never panic; a refusal is a typed error and leaves the base as it was; and
// an accepted delta yields the base's records followed by exactly the records
// a record-at-a-time decode of the delta gives, from which the same delta can
// be cut again.
func FuzzBucketDelta(f *testing.F) {
	label := bitlabel.MustParse("0011011")
	base := core.NewBucket(label, []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
	})
	baseBytes := MarshalBucket(base)
	tail := func(from, count uint64, recs ...spatial.Record) []byte {
		buf := binary.AppendUvarint(binary.AppendUvarint(nil, from), count)
		for _, r := range recs {
			buf = AppendRecord(buf, r)
		}
		return buf
	}
	rec := spatial.Record{Key: spatial.Point{0.3, 0.6}, Data: "new"}
	good, ok := base.Append(rec).AppendDelta(nil, base)
	if !ok || !bytes.Equal(good, tail(2, 1, rec)) {
		f.Fatalf("AppendDelta of a one-record append = %x, %v", good, ok)
	}
	f.Add(baseBytes, good)
	f.Add(MarshalBucket(core.Bucket{Label: label}), tail(0, 1, rec))                // onto an empty bucket
	f.Add(baseBytes, tail(1, 1, rec))                                               // from below the load
	f.Add(baseBytes, tail(3, 1, rec))                                               // from beyond the load
	f.Add(baseBytes, tail(2, 1, spatial.Record{Key: spatial.Point{0.1, 0.2, 0.3}})) // dims mismatch
	f.Add(baseBytes, append(tail(2, 1_000_000), make([]byte, 10)...))               // count no body can hold
	f.Add(baseBytes, good[:len(good)-8])                                            // truncated point
	f.Add(baseBytes, append(append([]byte(nil), good...), 0))                       // trailing bytes
	f.Add(baseBytes, tail(2, 0))                                                    // a delta of nothing
	f.Add([]byte{}, good)                                                           // a delta for an absent key
	f.Fuzz(func(t *testing.T, baseBytes, delta []byte) {
		var base any
		var before []byte
		b, err := UnmarshalBucket(baseBytes)
		if err == nil {
			base, before = b, MarshalBucket(b)
		}
		out, err := BucketCodec{}.ApplyDelta(base, delta)
		if base != nil && !bytes.Equal(MarshalBucket(b), before) {
			t.Fatalf("applying a delta changed its base (err %v)", err)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("refused with an untyped error: %v", err)
			}
			if out != nil {
				t.Fatalf("a refusal returned %v", out)
			}
			return
		}
		if base == nil {
			t.Fatal("a delta applied to no bucket")
		}
		next := out.(core.Bucket)
		from, n := binary.Uvarint(delta)
		count, m := binary.Uvarint(delta[n:])
		rest := delta[n+m:]
		if from != uint64(b.Load()) || next.Load() != b.Load()+int(count) || next.Label != b.Label {
			t.Fatalf("delta %d+%d over %d records of %v gave %d records of %v", from, count, b.Load(), b.Label, next.Load(), next.Label)
		}
		for i := 0; i < next.Load(); i++ {
			var want spatial.Record
			if i < b.Load() {
				want = b.RecordAt(i)
			} else if want, rest, err = DecodeRecord(rest); err != nil {
				t.Fatalf("record %d of an accepted delta: %v", i, err)
			}
			if got := next.RecordAt(i); !sameRecord(got, want) {
				t.Fatalf("record %d = %v, want %v", i, got, want)
			}
			if next.KeyAt(i).Dim() != next.KeyAt(0).Dim() {
				t.Fatalf("record %d has %d dims, record 0 has %d", i, next.KeyAt(i).Dim(), next.KeyAt(0).Dim())
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes of an accepted delta belong to no record", len(rest))
		}
		// The extended bucket is a bucket: it round-trips, and the delta cut
		// from it against the base takes a fresh copy of the base there too.
		again, err := UnmarshalBucket(MarshalBucket(next))
		if err != nil || !bytes.Equal(MarshalBucket(again), MarshalBucket(next)) {
			t.Fatalf("the extended bucket does not round-trip: %v", err)
		}
		recut, ok := next.AppendDelta(nil, b)
		if !ok {
			t.Fatal("the extended bucket is not recognised as its base extended")
		}
		fresh, err := UnmarshalBucket(baseBytes)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := fresh.Extend(recut)
		if err != nil || !bytes.Equal(MarshalBucket(replayed), MarshalBucket(next)) {
			t.Fatalf("the re-cut delta replays differently: %v", err)
		}
	})
}

// FuzzOp: an op's body comes off a socket and runs on a daemon, against
// whatever some client stored under the key. Arbitrary bytes for both never
// panic; a refusal is ErrMalformed and writes nothing; an op that runs is one
// the checked decoder accepts, and what it stores is a bucket whose every
// record lies in the unit cube when the stored bucket's did.
func FuzzOp(f *testing.F) {
	rule := core.SplitRule{Dims: 2, MaxDepth: 20, Strategy: core.SplitThreshold, ThetaSplit: 3, Epsilon: 70}
	root := bitlabel.Root(2)
	recs := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.9, 0.1}, Data: "yy"},
	}
	empty := MarshalBucket(core.Bucket{Label: root})
	three := MarshalBucket(core.NewBucket(root, recs))
	appendOne := core.EncodeOp(core.AppendOp{Rule: rule, Leaf: root, Records: recs[:1]})
	f.Add(appendOne, empty)                                                                                     // extends, on the bytes
	f.Add(appendOne, three)                                                                                     // splits
	f.Add(core.EncodeOp(core.AppendOp{Rule: rule, Leaf: bitlabel.MustParse("0011"), Records: recs[:1]}), three) // gone
	f.Add(core.EncodeOp(core.AppendOp{Rule: rule, Leaf: root, Records: recs}), empty)                           // a batch
	aware := rule
	aware.Strategy, aware.Epsilon = core.SplitDataAware, 2
	f.Add(core.EncodeOp(core.AppendOp{Rule: aware, Leaf: root, Records: recs[:1]}), three)
	f.Add(core.EncodeOp(core.RemoveOp{Leaf: root, Key: recs[0].Key, Data: "x", MergeThreshold: 2}), three)  // the bucket comes back
	f.Add(core.EncodeOp(core.RemoveOp{Leaf: root, Key: recs[0].Key, Data: "x", MergeThreshold: 1}), three)  // label and load
	f.Add(core.EncodeOp(core.RemoveOp{Leaf: root, Key: spatial.Point{0.3, 0.3}, MergeThreshold: 2}), three) // not there
	f.Add(appendOne, []byte("not a bucket"))
	f.Add(appendOne, mixedDimsBucket())
	f.Add(appendOne[:5], empty)
	f.Add(append(append([]byte(nil), appendOne...), 0), empty)
	f.Add([]byte{}, empty)
	f.Fuzz(func(t *testing.T, body, stored []byte) {
		before := append([]byte(nil), stored...)
		next, write, result, err := Op{Body: body}.Run(stored, true)
		if !bytes.Equal(stored, before) {
			t.Fatal("running an op edited the stored bytes in place")
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("refused with an untyped error: %v", err)
			}
			if write || next != nil || result != nil {
				t.Fatalf("a refusal returned %v, %v, %v", next, write, result)
			}
			return
		}
		op, err := core.DecodeOp(body)
		if err != nil {
			t.Fatalf("an op the decoder refuses ran: %v", err)
		}
		if _, err := op.DecodeResult(result.([]byte)); err != nil {
			t.Fatalf("the op's own result does not decode: %v", err)
		}
		was, err := UnmarshalBucket(stored)
		if err != nil {
			t.Fatalf("an op ran against bytes that are no bucket: %v", err)
		}
		if !write {
			if next != nil {
				t.Fatalf("nothing to write, and %v to store", next)
			}
			return
		}
		now, err := UnmarshalBucket(next.([]byte))
		if err != nil {
			t.Fatalf("the op stored bytes that are no bucket: %v", err)
		}
		if !bytes.Equal(MarshalBucket(now), next.([]byte)) {
			t.Fatal("the op stored a non-canonical encoding")
		}
		valid := true
		for i := 0; i < was.Load(); i++ {
			valid = valid && was.KeyAt(i).Valid()
		}
		for i := 0; valid && i < now.Load(); i++ {
			if !now.KeyAt(i).Valid() {
				t.Fatalf("record %d of the stored bucket lies outside the unit cube: %v", i, now.KeyAt(i))
			}
		}
	})
}
