package wire

import (
	"fmt"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dataset"
)

var benchSink core.Bucket

// BenchmarkUnmarshalBucket decodes a bucket of 50 and of 100 records (a
// leaf between θmerge and θsplit on the tcp-cluster workload): the cost a
// dialed client pays on every Get.
func BenchmarkUnmarshalBucket(b *testing.B) {
	for _, n := range []int{50, 100} {
		enc := MarshalBucket(core.NewBucket(bitlabel.Root(2), dataset.Generate(n, 1)))
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				var err error
				if benchSink, err = UnmarshalBucket(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestUnmarshalBucketAllocs is the gate: the three arenas, at any record
// count — no Point and no string per record.
func TestUnmarshalBucketAllocs(t *testing.T) {
	for _, n := range []int{50, 100} {
		enc := MarshalBucket(core.NewBucket(bitlabel.Root(2), dataset.Generate(n, 1)))
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if benchSink, err = UnmarshalBucket(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("UnmarshalBucket of %d records: %.0f allocs, want <= 3", n, allocs)
		}
	}
}

// BenchmarkOpRun is what the owner of a leaf does for one dialed insert, under
// its store lock: decode and check the op, decode the stored bucket of 50 or
// 100 records, append, re-encode, encode the commit.
func BenchmarkOpRun(b *testing.B) {
	for _, n := range []int{50, 100} {
		records := dataset.Generate(n+1, 1)
		stored := MarshalBucket(core.NewBucket(bitlabel.Root(2), records[:n]))
		rule := core.SplitRule{Dims: 2, MaxDepth: 28, Strategy: core.SplitThreshold, ThetaSplit: 1000}
		op := Op{Body: core.EncodeOp(core.AppendOp{Rule: rule, Leaf: bitlabel.Root(2), Records: records[n:]})}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, write, _, err := op.Run(stored, true); err != nil || !write {
					b.Fatal(write, err)
				}
			}
		})
	}
}
