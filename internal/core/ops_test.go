package core

import (
	"bytes"
	"fmt"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// contractLeaf is a leaf below the 2-dimensional root: its cell is [0.75, 1)
// × [0.25, 0.5), which covers covered and covered2 and not uncovered.
var (
	contractLeaf = bitlabel.MustParse("0011011")
	covered      = spatial.Record{Key: spatial.Point{0.875, 0.375}, Data: "covered"}
	covered2     = spatial.Record{Key: spatial.Point{0.8, 0.3}, Data: "covered2"}
	uncovered    = spatial.Record{Key: spatial.Point{0.25, 0.75}, Data: "uncovered"}
)

// ownerCase is one op sent to a key: what the key holds (nothing when absent)
// and whether the stored leaf covers the op's record(s), which is what the op
// must land by.
type ownerCase struct {
	name   string
	op     Op
	stored Bucket
	absent bool
	lands  bool
}

func ownerCases() []ownerCase {
	rule := SplitRule{Dims: 2, MaxDepth: 20, Strategy: SplitThreshold, ThetaSplit: 8, Epsilon: 70}
	root, leaf := bitlabel.Root(2), contractLeaf
	appendOp := func(to bitlabel.Label, recs ...spatial.Record) AppendOp {
		return AppendOp{Rule: rule, Leaf: to, Records: recs}
	}
	removeOp := func(to bitlabel.Label, r spatial.Record) RemoveOp {
		return RemoveOp{Leaf: to, Key: r.Key, Data: r.Data, MergeThreshold: 4}
	}
	holding := NewBucket(leaf, []spatial.Record{covered, covered2})
	full := NewBucket(leaf, nil)
	for i := 0; i < rule.ThetaSplit; i++ {
		full = full.Append(spatial.Record{Key: spatial.Point{0.75 + float64(i)/40, 0.25 + float64(i%4)/20}, Data: fmt.Sprint(i)})
	}
	return []ownerCase{
		{name: "append/the stored label", op: appendOp(leaf, covered), stored: holding, lands: true},
		{name: "append/an ancestor's label", op: appendOp(root, covered), stored: holding, lands: true},
		{name: "append/the sibling's label", op: appendOp(leaf.Sibling(), covered), stored: holding, lands: true},
		{name: "append/a child's label, after a merge", op: appendOp(leaf.MustAppend(1), covered), stored: holding, lands: true},
		{name: "append/that splits the stored leaf", op: appendOp(root, covered), stored: full, lands: true},
		{name: "append/a batch, one record stale", op: appendOp(leaf, uncovered, covered), stored: holding, lands: true},
		{name: "append/a record outside the stored leaf", op: appendOp(leaf, uncovered), stored: holding},
		{name: "append/under another label, outside", op: appendOp(root, uncovered), stored: holding},
		{name: "append/to an absent key", op: appendOp(leaf, covered), absent: true},
		{name: "remove/the stored label", op: removeOp(leaf, covered), stored: holding, lands: true},
		{name: "remove/an ancestor's label", op: removeOp(root, covered), stored: holding, lands: true},
		{name: "remove/from the merged parent", op: removeOp(leaf.MustAppend(0), covered2), stored: holding, lands: true},
		{name: "remove/a record that is not there", op: removeOp(root, spatial.Record{Key: covered.Key, Data: "never stored"}), stored: holding, lands: true},
		{name: "remove/a key outside the stored leaf", op: removeOp(leaf, uncovered), stored: holding},
		{name: "remove/from an absent key", op: removeOp(leaf, covered), absent: true},
	}
}

// TestOwnerDecidesByCoverage: an op sent to a key lands if and only if the
// leaf stored there covers its record(s), whatever label it was sent under;
// on a miss it stores nothing and reports the stored leaf's label, or the
// empty label when the key holds nothing. Run and RunBytes decide the same on
// every case: the bytes RunBytes stores and reports are the encodings of what
// Run stores and reports, and the reply decodes back to Run's verdict.
func TestOwnerDecidesByCoverage(t *testing.T) {
	for _, tc := range ownerCases() {
		t.Run(tc.name, func(t *testing.T) {
			var cur any
			var curBytes []byte
			if !tc.absent {
				cur, curBytes = tc.stored, tc.stored.Marshal()
			}
			next, write, result, err := tc.op.Run(cur, !tc.absent)
			if err != nil {
				t.Fatal(err)
			}
			nextBytes, writeBytes, resultBytes, err := tc.op.RunBytes(curBytes, !tc.absent)
			if err != nil {
				t.Fatal(err)
			}
			if writeBytes != write {
				t.Fatalf("Run writes %v, RunBytes %v", write, writeBytes)
			}
			if write && !bytes.Equal(nextBytes, next.(Bucket).Marshal()) {
				t.Fatalf("RunBytes stores %x, Run stores %x", nextBytes, next.(Bucket).Marshal())
			}
			if want := tc.op.encodeResult(result); !bytes.Equal(resultBytes, want) {
				t.Fatalf("RunBytes reports %x, Run reports %x", resultBytes, want)
			}
			decoded, err := tc.op.DecodeResult(resultBytes)
			if err != nil {
				t.Fatal(err)
			}

			var gone bool
			var label bitlabel.Label
			switch r := decoded.(type) {
			case Commit:
				gone, label = r.Gone, r.Keep.Label
				if !gone && (r.Accepted == 0 || !write) {
					t.Fatalf("a commit that landed stored nothing: %+v", r)
				}
			case Removal:
				gone, label = r.Gone, r.Keep.Label
				if r.Removed != write {
					t.Fatalf("removal %+v, write %v", r, write)
				}
			}
			if gone == tc.lands {
				t.Fatalf("gone = %v; the stored leaf %v covering the op's records says it lands: %v", gone, tc.stored.Label, tc.lands)
			}
			if !gone {
				return
			}
			if write || next != nil || nextBytes != nil {
				t.Fatalf("a declined op stores %v (%x)", next, nextBytes)
			}
			if label != tc.stored.Label {
				t.Fatalf("a declined op reports the label %v, the key holds %v", label, tc.stored.Label)
			}
		})
	}
}
