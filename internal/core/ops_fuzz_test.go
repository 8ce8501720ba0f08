package core

import (
	"bytes"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// FuzzRunBytes: an append on the bucket's bytes (AppendOp.extendEncoded) is an
// optimisation and must be nothing else. Whatever op the decoder accepts,
// against whatever is stored, RunBytes stores and reports byte for byte what
// decoding the bucket, running the op and encoding the outcome does.
func FuzzRunBytes(f *testing.F) {
	rule := SplitRule{Dims: 2, MaxDepth: 20, Strategy: SplitThreshold, ThetaSplit: 3, Epsilon: 70}
	root := bitlabel.Root(2)
	recs := []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
		{Key: spatial.Point{0.9, 0.1}, Data: "yy"},
	}
	one := EncodeOp(AppendOp{Rule: rule, Leaf: root, Records: recs[:1]})
	f.Add(one, Bucket{Label: root}.Marshal())
	f.Add(one, NewBucket(root, recs[1:]).Marshal()) // reaches the bound exactly
	f.Add(one, NewBucket(root, recs).Marshal())     // crosses it
	f.Add(EncodeOp(AppendOp{Rule: rule, Leaf: root, Records: recs}), Bucket{Label: root}.Marshal())
	left, right := bitlabel.MustParse("0010"), bitlabel.MustParse("0011")                           // x < ½ and x ≥ ½
	f.Add(EncodeOp(AppendOp{Rule: rule, Leaf: left, Records: recs}), Bucket{Label: left}.Marshal()) // two stale records
	f.Add(one, NewBucket(root, []spatial.Record{{Key: spatial.Point{0.1, 0.2, 0.3}}}).Marshal())    // stored records of another dimensionality
	f.Add(one, append(NewBucket(root, recs[:1]).Marshal(), 0))                                      // trailing bytes
	f.Add(EncodeOp(RemoveOp{Leaf: root, Key: recs[0].Key, Data: "x", MergeThreshold: 2}), NewBucket(root, recs).Marshal())
	// One stored record whose dimension count is a padded uvarint: it decodes,
	// and re-encodes shorter.
	padded := append(Bucket{Label: root}.Marshal()[:9], 1, 0x82, 0x00)
	f.Add(one, append(append(padded, make([]byte, 16)...), 0))
	// Sent under a label the key does not hold: the root's, to the leaf that
	// covers the record (it lands on the bytes) and to one that does not (gone,
	// with that leaf's label).
	f.Add(one, Bucket{Label: left}.Marshal())
	f.Add(one, Bucket{Label: right}.Marshal())
	f.Fuzz(func(t *testing.T, body, stored []byte) {
		op, err := DecodeOp(body)
		if err != nil {
			return
		}
		next, write, result, err := op.RunBytes(stored, true)
		wantNext, wantWrite, wantResult, wantErr := runDecoded(op, stored, true)
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
