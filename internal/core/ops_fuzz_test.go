package core

import (
	"bytes"
	"math"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// FuzzRunBytes: an op run on the bucket's bytes — an append, a removal, a key
// that holds nothing — is an optimisation and must be nothing else. Whatever
// op the decoder accepts, against whatever is stored or nothing, RunBytes
// stores and reports byte for byte what decoding the bucket, running the op
// and encoding the outcome does.
func FuzzRunBytes(f *testing.F) {
	rule := SplitRule{Dims: 2, MaxDepth: 20, Strategy: SplitThreshold, ThetaSplit: 3, Epsilon: 70}
	root := bitlabel.Root(2)
	recs := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.9, 0.1}, Data: "yy"},
	}
	one := EncodeOp(AppendOp{Rule: rule, Records: recs[:1]})
	f.Add(one, Bucket{Label: root}.Marshal(), true)
	f.Add(one, NewBucket(root, recs[1:]).Marshal(), true) // reaches the bound exactly
	f.Add(one, NewBucket(root, recs).Marshal(), true)     // crosses it
	f.Add(EncodeOp(AppendOp{Rule: rule, Records: recs}), Bucket{Label: root}.Marshal(), true)
	left, right := bitlabel.MustParse("0010"), bitlabel.MustParse("0011")                              // x < ½ and x ≥ ½
	f.Add(EncodeOp(AppendOp{Rule: rule, Records: recs}), Bucket{Label: left}.Marshal(), true)          // two stale records
	f.Add(one, NewBucket(root, []spatial.Record{{Key: spatial.Point{0.1, 0.2, 0.3}}}).Marshal(), true) // stored records of another dimensionality
	f.Add(one, append(NewBucket(root, recs[:1]).Marshal(), 0), true)                                   // trailing bytes
	f.Add(EncodeOp(RemoveOp{Key: recs[0].Key, Data: "x", MergeThreshold: 2}), NewBucket(root, recs).Marshal(), true)
	// One stored record whose dimension count is a padded uvarint: it decodes,
	// and re-encodes shorter.
	padded := append(Bucket{Label: root}.Marshal()[:9], 1, 0x82, 0x00)
	f.Add(one, append(append(padded, make([]byte, 16)...), 0), true)
	// Sent to a key holding a leaf below the root: one that covers the record
	// (it lands on the bytes) and one that does not (gone, with that leaf's
	// label).
	f.Add(one, Bucket{Label: left}.Marshal(), true)
	f.Add(one, Bucket{Label: right}.Marshal(), true)
	// A key that holds nothing, for an append and for a removal.
	f.Add(one, []byte(nil), false)
	f.Add(EncodeOp(RemoveOp{Key: recs[0].Key, MergeThreshold: 2}), []byte(nil), false)
	// Removals on the bytes: ±0 match each other as float64s, not as bits;
	// of duplicate records the first goes; a data-less remove takes the
	// first record at the key whatever its data; the last record leaves an
	// empty bucket; a record of the same key but other data stays.
	edge := []spatial.Record{
		{Key: spatial.Point{0, 0.5}, Data: "z"},
		{Key: spatial.Point{0.5, 0.5}, Data: "a"},
		{Key: spatial.Point{0.5, 0.5}, Data: "a"},
		{Key: spatial.Point{0.5, 0.5}, Data: "b"},
	}
	edges := NewBucket(root, edge).Marshal()
	negZero := spatial.Point{math.Copysign(0, -1), 0.5}
	f.Add(EncodeOp(RemoveOp{Key: negZero, Data: "z", MergeThreshold: 2}), edges, true)
	f.Add(EncodeOp(RemoveOp{Key: spatial.Point{0, 0.5}, MergeThreshold: 9}), NewBucket(root, []spatial.Record{{Key: negZero, Data: "z"}}).Marshal(), true)
	f.Add(EncodeOp(RemoveOp{Key: edge[1].Key, Data: "a", MergeThreshold: 2}), edges, true)
	f.Add(EncodeOp(RemoveOp{Key: edge[1].Key, MergeThreshold: 9}), edges, true)
	f.Add(EncodeOp(RemoveOp{Key: edge[3].Key, Data: "b", MergeThreshold: 9}), edges, true)
	f.Add(EncodeOp(RemoveOp{Key: edge[3].Key, Data: "c", MergeThreshold: 9}), edges, true)
	f.Add(EncodeOp(RemoveOp{Key: recs[0].Key, Data: "x", MergeThreshold: 1}), NewBucket(root, recs[:1]).Marshal(), true)
	f.Add(EncodeOp(RemoveOp{Key: recs[0].Key, MergeThreshold: 2}), Bucket{Label: left}.Marshal(), true)
	f.Add(EncodeOp(RemoveOp{Key: recs[2].Key, MergeThreshold: 2}), Bucket{Label: left}.Marshal(), true)
	f.Fuzz(func(t *testing.T, body, stored []byte, exists bool) {
		op, err := DecodeOp(body)
		if err != nil {
			return
		}
		next, write, result, err := op.RunBytes(stored, exists)
		wantNext, wantWrite, wantResult, wantErr := runDecoded(op, stored, exists)
		if (err != nil) != (wantErr != nil) || write != wantWrite || !bytes.Equal(next, wantNext) || !bytes.Equal(result, wantResult) {
			t.Fatalf("RunBytes = %x, %v, %x, %v\n decoded = %x, %v, %x, %v", next, write, result, err, wantNext, wantWrite, wantResult, wantErr)
		}
		if !bytes.Equal(EncodeOp(op), body) {
			if again, err := DecodeOp(EncodeOp(op)); err != nil || !bytes.Equal(EncodeOp(again), EncodeOp(op)) {
				t.Fatalf("an accepted op does not re-encode to a fixed point: %v", err)
			}
		}
	})
}
