package core

import (
	"bytes"
	"math"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// FuzzRunBytes: an op run on the stored bytes — RunEncoded on a view of them
// (ViewBucket), what a daemon does — must be Run on a decoded copy, and
// nothing else. ViewBucket takes exactly the bytes Marshal writes — anything
// else takes the copy — and whatever op the decoder accepts, against whatever
// is stored or nothing, RunEncoded stores and reports byte for byte the
// encodings of what Run stores and reports, and leaves the stored bytes as
// they were.
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
		var viewed Bucket
		var cur any
		if exists {
			v, ok := ViewBucket(stored)
			d, err := UnmarshalBucket(stored)
			if exact := err == nil && bytes.Equal(d.Marshal(), stored); ok != exact {
				t.Fatalf("ViewBucket accepts %x: %v; it is Marshal's encoding: %v", stored, ok, exact)
			}
			if err != nil {
				return
			}
			if !ok {
				v = d
			}
			viewed, cur = v, d
		}
		before := bytes.Clone(stored)
		next, write, result := op.RunEncoded(viewed)
		wantNext, wantWrite, wantResult, err := op.Run(cur, exists)
		if err != nil {
			t.Fatal(err)
		}
		if write != wantWrite || !bytes.Equal(result, op.encodeResult(wantResult)) || write && !bytes.Equal(next, wantNext.(Bucket).Marshal()) {
			t.Fatalf("RunEncoded = %x, %v, %x\n Run = %v, %v, %x", next, write, result, wantNext, wantWrite, op.encodeResult(wantResult))
		}
		if !write && next != nil {
			t.Fatalf("RunEncoded writes nothing and returns %x", next)
		}
		if !bytes.Equal(stored, before) {
			t.Fatal("running an op on a view edited the stored bytes")
		}
		if !bytes.Equal(EncodeOp(op), body) {
			if again, err := DecodeOp(EncodeOp(op)); err != nil || !bytes.Equal(EncodeOp(again), EncodeOp(op)) {
				t.Fatalf("an accepted op does not re-encode to a fixed point: %v", err)
			}
		}
	})
}
