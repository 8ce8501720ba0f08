package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/spatial"
)

// mixedDimsBucket is a two-record bucket whose records disagree on
// dimensionality: keys (0.1, 0.2) and (0.3). A bucket holds one
// dimensionality, so this must not decode.
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
	// One-record buckets: a whole record, and a lone dimension count.
	oneRecord := MarshalBucket(core.Bucket{Label: bitlabel.Root(2)})[:9]
	oneRecord = append(oneRecord, 1)
	f.Add(AppendRecord(bytes.Clone(oneRecord), spatial.Record{Key: spatial.Point{0.1, 0.9}, Data: "abc"}))
	f.Add(append(bytes.Clone(oneRecord), 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBucket(data)
		if err != nil {
			return
		}
		// The bucket is a copy: bytes overwritten after decoding show in
		// none of its records.
		scratch := bytes.Clone(data)
		held, err := UnmarshalBucket(scratch)
		if err != nil {
			t.Fatalf("a copy of accepted bytes is refused: %v", err)
		}
		for i := range scratch {
			scratch[i] ^= 0xff
		}
		if !bytes.Equal(MarshalBucket(held), MarshalBucket(b)) {
			t.Fatal("overwriting the decoded bytes changed the bucket")
		}
		// The header is nine bytes, then an extension when the length byte's
		// high bit is set (core/move.go), then the count, then the records.
		head := 9
		if data[0]&0x80 != 0 {
			head += extensionLen(data[9:])
		}
		_, n := binary.Uvarint(data[head:])
		rest := data[head+n:]
		for i := 0; i < b.Load(); i++ {
			var want spatial.Record
			if want, rest, err = decodeRecord(rest); err != nil {
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

// extensionLen walks a bucket extension's framing, as the bucket format
// (core/move.go) writes it: a flags byte (1 a move, 2 a tombstone, 4 a
// retiring bucket), the merge count, and for a move the retiring bucket's
// sibling count, then the piece count and each piece as a length and bytes.
func extensionLen(p []byte) int {
	off := 1
	_, n := binary.Uvarint(p[off:])
	off += n
	if p[0]&1 == 0 {
		return off
	}
	if p[0]&4 != 0 {
		_, n = binary.Uvarint(p[off:])
		off += n
	}
	count, n := binary.Uvarint(p[off:])
	off += n
	for ; count > 0; count-- {
		size, n := binary.Uvarint(p[off:])
		off += n + int(size)
	}
	return off
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

// decodeRecord is the reference decoder of one record, written out as the
// format says (core/columnar.go), returning the remaining bytes.
func decodeRecord(buf []byte) (spatial.Record, []byte, error) {
	dims, n := binary.Uvarint(buf)
	if n <= 0 || dims > 1<<16 || uint64(len(buf)-n) < 8*dims {
		return spatial.Record{}, nil, fmt.Errorf("%w: point", ErrMalformed)
	}
	key := make(spatial.Point, dims)
	for i := range key {
		key[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[n+8*i:]))
	}
	rest := buf[n+8*int(dims):]
	size, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < size {
		return spatial.Record{}, nil, fmt.Errorf("%w: record data", ErrMalformed)
	}
	rest = rest[n:]
	return spatial.Record{Key: key, Data: string(rest[:size])}, rest[size:], nil
}

// FuzzBucketDelta: a delta is bytes from a log, so every length in it is a
// claim. Applied to any bucket — or to no bucket at all — arbitrary bytes
// never panic; a refusal is a typed error and leaves the base as it was. An
// accepted append delta yields the base's records followed by exactly the
// records a record-at-a-time decode of the delta gives; an accepted removal
// delta (count 0) yields the base without the record it names. From either
// result a delta can be cut again that replays to the same bytes.
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
	good, ok := core.CutDelta(nil, base, base.Append(rec))
	if !ok || !bytes.Equal(good, tail(2, 1, rec)) {
		f.Fatalf("CutDelta of a one-record append = %x, %v", good, ok)
	}
	f.Add(baseBytes, good)
	f.Add(MarshalBucket(core.Bucket{Label: label}), tail(0, 1, rec))                // onto an empty bucket
	f.Add(baseBytes, tail(1, 1, rec))                                               // from below the load
	f.Add(baseBytes, tail(3, 1, rec))                                               // from beyond the load
	f.Add(baseBytes, tail(2, 1, spatial.Record{Key: spatial.Point{0.1, 0.2, 0.3}})) // dims mismatch
	f.Add(baseBytes, append(tail(2, 1_000_000), make([]byte, 10)...))               // count no body can hold
	f.Add(baseBytes, good[:len(good)-8])                                            // truncated point
	f.Add(baseBytes, append(append([]byte(nil), good...), 0))                       // trailing bytes
	f.Add([]byte{}, good)                                                           // a delta for an absent key
	// Removals: tail(from, 0) is a removal's head, the index follows.
	removal := func(from, i uint64) []byte { return binary.AppendUvarint(tail(from, 0), i) }
	if cut, ok := core.CutDelta(nil, base, core.NewBucket(label, base.Records()[1:])); !ok || !bytes.Equal(cut, removal(2, 0)) {
		f.Fatalf("CutDelta of a removal = %x, %v", cut, ok)
	}
	three := MarshalBucket(base.Append(rec))
	f.Add(three, removal(3, 0))                                                    // the first record
	f.Add(three, removal(3, 1))                                                    // the middle one
	f.Add(three, removal(3, 2))                                                    // the last one
	f.Add(MarshalBucket(core.NewBucket(label, base.Records()[:1])), removal(1, 0)) // the only one
	f.Add(MarshalBucket(base.Append(base.Records()[1])), removal(3, 1))            // one of twins
	f.Add(baseBytes, removal(2, 2))                                                // i = from
	f.Add(baseBytes, removal(2, 1000))                                             // i past from
	f.Add(baseBytes, append(removal(2, 1), 0))                                     // trailing bytes
	f.Add(MarshalBucket(core.Bucket{Label: label}), removal(0, 0))                 // from an empty bucket
	f.Add(baseBytes, tail(2, 0))                                                   // no index
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
		want := b.Records()
		if count == 0 {
			i, k := binary.Uvarint(rest)
			if k <= 0 || k != len(rest) || i >= from {
				t.Fatalf("accepted removal delta % x over %d records", delta, b.Load())
			}
			want, rest = append(want[:i:i], want[i+1:]...), nil
		}
		if from != uint64(b.Load()) || next.Load() != len(want)+int(count) || next.Label != b.Label {
			t.Fatalf("delta %d+%d over %d records of %v gave %d records of %v", from, count, b.Load(), b.Label, next.Load(), next.Label)
		}
		for i := 0; i < next.Load(); i++ {
			var w spatial.Record
			if i < len(want) {
				w = want[i]
			} else if w, rest, err = decodeRecord(rest); err != nil {
				t.Fatalf("record %d of an accepted delta: %v", i, err)
			}
			if got := next.RecordAt(i); !sameRecord(got, w) {
				t.Fatalf("record %d = %v, want %v", i, got, w)
			}
			if next.KeyAt(i).Dim() != next.KeyAt(0).Dim() {
				t.Fatalf("record %d has %d dims, record 0 has %d", i, next.KeyAt(i).Dim(), next.KeyAt(0).Dim())
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes of an accepted delta belong to no record", len(rest))
		}
		// The new bucket is a bucket: it round-trips, and the delta cut from
		// it against the base takes a fresh copy of the base there too.
		again, err := UnmarshalBucket(MarshalBucket(next))
		if err != nil || !bytes.Equal(MarshalBucket(again), MarshalBucket(next)) {
			t.Fatalf("the new bucket does not round-trip: %v", err)
		}
		recut, ok := core.CutDelta(nil, b, next)
		if !ok {
			t.Fatal("the new bucket is not recognised as its base with one write")
		}
		fresh, err := UnmarshalBucket(baseBytes)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := core.ReplayDelta(fresh, recut)
		if err != nil || !bytes.Equal(MarshalBucket(replayed), MarshalBucket(next)) {
			t.Fatalf("the re-cut delta replays differently: %v", err)
		}
	})
}

// FuzzDaemonDelta: a daemon journals a bucket's step over the encoding and
// replays it there (DaemonCodec), and must do nothing else than the decoded
// step does. For any base and delta, ApplyDelta refuses, or returns exactly
// the bytes that decoding the base, ReplayDelta and Marshal give. A delta it
// accepts is cut again from the base and the result byte for byte. Read as a
// put's next value, the delta's bytes are a second encoding: if AppendDelta
// takes the base to them, ApplyDelta takes the base back to them.
func FuzzDaemonDelta(f *testing.F) {
	label := bitlabel.MustParse("0011011")
	recs := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.3, 0.6}, Data: "new"},
	}
	base := core.NewBucket(label, recs[:2])
	baseBytes := MarshalBucket(base)
	cut := func(prev, next core.Bucket) []byte {
		delta, ok := core.CutDelta(nil, prev, next)
		if !ok {
			f.Fatalf("no delta from %v to %v", prev, next)
		}
		return delta
	}
	three := core.NewBucket(label, recs[:3])
	f.Add(baseBytes, cut(base, base.Append(recs[3])))                                                                      // an append
	f.Add(MarshalBucket(core.Bucket{Label: label}), cut(core.Bucket{Label: label}, core.NewBucket(label, recs[3:])))       // onto an empty bucket
	f.Add(MarshalBucket(three), cut(three, core.NewBucket(label, recs[1:3])))                                              // the first record
	f.Add(MarshalBucket(three), cut(three, core.NewBucket(label, recs[:2])))                                               // one of twins
	f.Add(MarshalBucket(core.NewBucket(label, recs[:1])), cut(core.NewBucket(label, recs[:1]), core.Bucket{Label: label})) // the only one
	f.Add(baseBytes, MarshalBucket(base.Append(recs[3])))                                                                  // a whole bucket as the next value
	f.Add(baseBytes, MarshalBucket(core.NewBucket(label, recs[1:2])))
	padded := append(MarshalBucket(core.Bucket{Label: label})[:9], 0x80, 0x00) // a padded count
	f.Add(padded, cut(core.Bucket{Label: label}, core.NewBucket(label, recs[3:])))
	f.Add(baseBytes, []byte{2, 1, 1, 0x82, 0x00})
	f.Fuzz(func(t *testing.T, baseBytes, delta []byte) {
		codec := DaemonCodec{}
		out, err := codec.ApplyDelta(baseBytes, delta)
		var want []byte
		b, decErr := UnmarshalBucket(baseBytes)
		if decErr == nil {
			if next, err := core.ReplayDelta(b, delta); err == nil {
				want = MarshalBucket(next)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) || out != nil {
				t.Fatalf("a refusal returned %v, %v", out, err)
			}
		} else {
			got := out.([]byte)
			if want == nil || !bytes.Equal(got, want) {
				t.Fatalf("ApplyDelta = %x, decode, ReplayDelta and Marshal give %x", got, want)
			}
			recut, ok := codec.AppendDelta(nil, baseBytes, got)
			if !ok {
				t.Fatal("an applied delta's result is not recognised as its base with one step")
			}
			again, err := codec.ApplyDelta(baseBytes, recut)
			if err != nil || !bytes.Equal(again.([]byte), got) {
				t.Fatalf("the re-cut delta %x replays to %x, %v; want %x", recut, again, err, got)
			}
		}
		if step, ok := codec.AppendDelta(nil, baseBytes, delta); ok {
			if len(step) == 0 {
				if !bytes.Equal(baseBytes, delta) {
					t.Fatal("an empty step between unequal values")
				}
				return
			}
			next, err := codec.ApplyDelta(baseBytes, step)
			if err != nil || !bytes.Equal(next.([]byte), delta) {
				t.Fatalf("the step %x replays to %x, %v; want %x", step, next, err, delta)
			}
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
	appendOne := core.EncodeOp(core.AppendOp{Rule: rule, Records: recs[:1]})
	f.Add(appendOne, empty)                                                         // extends, on the bytes
	f.Add(appendOne, three)                                                         // splits
	f.Add(appendOne, MarshalBucket(core.Bucket{Label: bitlabel.MustParse("0011")})) // gone
	f.Add(core.EncodeOp(core.AppendOp{Rule: rule, Records: recs}), empty)           // a batch
	aware := rule
	aware.Strategy, aware.Epsilon = core.SplitDataAware, 2
	f.Add(core.EncodeOp(core.AppendOp{Rule: aware, Records: recs[:1]}), three)
	f.Add(core.EncodeOp(core.RemoveOp{Key: recs[0].Key, Data: "x", MergeThreshold: 2}), three)  // the bucket comes back
	f.Add(core.EncodeOp(core.RemoveOp{Key: recs[0].Key, Data: "x", MergeThreshold: 1}), three)  // label and load
	f.Add(core.EncodeOp(core.RemoveOp{Key: spatial.Point{0.3, 0.3}, MergeThreshold: 2}), three) // not there
	piece := core.NewBucket(bitlabel.MustParse("0011"), recs[2:])
	f.Add(core.EncodeOp(core.InstallOp{Rule: rule, Piece: piece}), []byte{})                                                                    // into an empty key
	f.Add(core.EncodeOp(core.InstallOp{Rule: rule, Piece: piece, Absorb: true}), MarshalBucket(core.Bucket{Label: bitlabel.MustParse("0010")})) // absorbed
	f.Add(core.EncodeOp(core.RetireOp{Label: root}), three)
	f.Add(core.EncodeOp(core.ClearOp{Labels: []bitlabel.Label{piece.Label}}), three)
	if next, _, _, err := (Op{Body: core.EncodeOp(core.AppendOp{Rule: rule, Records: recs})}).Run(three, true); err == nil && next != nil {
		f.Add(appendOne, next.([]byte)) // at a bucket its split marked
		f.Add(core.EncodeOp(core.ClearOp{Labels: []bitlabel.Label{piece.Label, bitlabel.MustParse("0010")}}), next.([]byte))
	}
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
