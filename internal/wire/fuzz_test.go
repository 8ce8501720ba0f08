package wire

import (
	"bytes"
	"encoding/binary"
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
