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
// must land by. The names say which label led the sender to the key — the op
// carries none of it — and the key holds what that label's story leaves there:
// the record's leaf, an ancestor it was merged into, its sibling.
type ownerCase struct {
	name   string
	op     Op
	stored Bucket
	absent bool
	lands  bool
}

func ownerCases() []ownerCase {
	rule := SplitRule{Dims: 2, MaxDepth: 20, Strategy: SplitThreshold, ThetaSplit: 8, Epsilon: 70}
	leaf := contractLeaf
	appendOp := func(recs ...spatial.Record) AppendOp {
		return AppendOp{Rule: rule, Records: recs}
	}
	removeOp := func(r spatial.Record) RemoveOp {
		return RemoveOp{Key: r.Key, Data: r.Data, MergeThreshold: 4}
	}
	holding := NewBucket(leaf, []spatial.Record{covered, covered2})
	merged := NewBucket(leaf.Parent(), []spatial.Record{covered, covered2})
	sibling := Bucket{Label: leaf.Sibling()}
	full := NewBucket(leaf, nil)
	for i := 0; i < rule.ThetaSplit; i++ {
		full = full.Append(spatial.Record{Key: spatial.Point{0.75 + float64(i)/40, 0.25 + float64(i%4)/20}, Data: fmt.Sprint(i)})
	}
	return []ownerCase{
		{name: "append/the stored label", op: appendOp(covered), stored: holding, lands: true},
		{name: "append/an ancestor's label", op: appendOp(covered), stored: merged, lands: true},
		{name: "append/the sibling's label", op: appendOp(covered), stored: sibling},
		{name: "append/a child's label, after a merge", op: appendOp(covered2), stored: holding, lands: true},
		{name: "append/that splits the stored leaf", op: appendOp(covered), stored: full, lands: true},
		{name: "append/a batch, one record stale", op: appendOp(uncovered, covered), stored: holding, lands: true},
		{name: "append/a record outside the stored leaf", op: appendOp(uncovered), stored: holding},
		{name: "append/under another label, outside", op: appendOp(uncovered), stored: merged},
		{name: "append/to an absent key", op: appendOp(covered), absent: true},
		{name: "remove/the stored label", op: removeOp(covered), stored: holding, lands: true},
		{name: "remove/an ancestor's label", op: removeOp(covered), stored: merged, lands: true},
		{name: "remove/from the merged parent", op: removeOp(covered2), stored: holding, lands: true},
		{name: "remove/a record that is not there", op: removeOp(spatial.Record{Key: covered.Key, Data: "never stored"}), stored: holding, lands: true},
		{name: "remove/a key outside the stored leaf", op: removeOp(uncovered), stored: holding},
		{name: "remove/from an absent key", op: removeOp(covered), absent: true},
	}
}

// TestOwnerDecidesByCoverage: an op sent to a key lands if and only if the
// leaf stored there covers its record(s), whichever label led it there;
// on a miss it stores nothing and reports the stored leaf's label, or the
// empty label when the key holds nothing. Run and RunEncoded, on a view of
// the bucket's encoding, decide the same on every case: the bytes RunEncoded
// stores and reports are the encodings of what Run stores and reports, and
// the reply decodes back to Run's verdict.
func TestOwnerDecidesByCoverage(t *testing.T) {
	for _, tc := range ownerCases() {
		t.Run(tc.name, func(t *testing.T) {
			var cur any
			var viewed Bucket
			if !tc.absent {
				v, ok := ViewBucket(tc.stored.Marshal())
				if !ok {
					t.Fatal("no view of a bucket's own encoding")
				}
				cur, viewed = tc.stored, v
			}
			next, write, result, err := tc.op.Run(cur, !tc.absent)
			if err != nil {
				t.Fatal(err)
			}
			nextBytes, writeBytes, resultBytes := tc.op.RunEncoded(viewed)
			if writeBytes != write {
				t.Fatalf("Run writes %v, RunEncoded %v", write, writeBytes)
			}
			if write && !bytes.Equal(nextBytes, next.(Bucket).Marshal()) {
				t.Fatalf("RunEncoded stores %x, Run stores %x", nextBytes, next.(Bucket).Marshal())
			}
			if want := tc.op.encodeResult(result); !bytes.Equal(resultBytes, want) {
				t.Fatalf("RunEncoded reports %x, Run reports %x", resultBytes, want)
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
