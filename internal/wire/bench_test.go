package wire

import (
	"fmt"
	"runtime"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht/dhttest"
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

// TestUnmarshalBucketAllocs is the gate: one copy of the records'
// encodings, at any record count — no Point and no string per record.
func TestUnmarshalBucketAllocs(t *testing.T) {
	for _, n := range []int{50, 100} {
		enc := MarshalBucket(core.NewBucket(bitlabel.Root(2), dataset.Generate(n, 1)))
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if benchSink, err = UnmarshalBucket(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("UnmarshalBucket of %d records: %.0f allocs, want <= 1", n, allocs)
		}
	}
}

// BenchmarkOpRun is what the owner of a leaf does for one dialed insert or
// delete, under its store lock: decode and check the op, then append the
// record to the stored bucket of 50 or 100 records, or cut one out of it, on
// a view of its bytes, and encode the bucket kept and the commit or the
// removal.
func BenchmarkOpRun(b *testing.B) {
	for _, n := range []int{50, 100} {
		stored, appendOp, removeOp := opRunCase(n)
		for _, tc := range []struct {
			name string
			op   Op
		}{{"append", appendOp}, {"remove", removeOp}} {
			b.Run(fmt.Sprintf("%s/%d", tc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, write, _, err := tc.op.Run(stored, true); err != nil || !write {
						b.Fatal(write, err)
					}
				}
			})
		}
	}
}

// opRunCase is a stored bucket of n records at the root, an op that appends
// one more and an op that removes its middle record.
func opRunCase(n int) (stored []byte, appendOp, removeOp Op) {
	records := dataset.Generate(n+1, 1)
	stored = MarshalBucket(core.NewBucket(bitlabel.Root(2), records[:n]))
	rule := core.SplitRule{Dims: 2, MaxDepth: 28, Strategy: core.SplitThreshold, ThetaSplit: 1000}
	mid := records[n/2]
	return stored,
		Op{Body: core.EncodeOp(core.AppendOp{Rule: rule, Records: records[n:]})},
		Op{Body: core.EncodeOp(core.RemoveOp{Key: mid.Key, Data: mid.Data, MergeThreshold: 10})}
}

// TestAppendBytesAllocs is the gate of an insert at the owner: the op decoded
// (its record) and boxed, the kept bucket's encoding built once from a view of
// the stored bytes and the new record, the reply, and the stored and reply
// bytes boxed — 9 allocations at any record count, and no more bytes than
// the kept encoding, the reply and 512 for the rest (the decoded op, the
// boxes, size-class rounding). Growing the stored view and then marshalling
// it again reads 10 allocations and twice the encoding.
func TestAppendBytesAllocs(t *testing.T) {
	if dhttest.RaceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{50, 100} {
		stored, op, _ := opRunCase(n)
		next, _, reply, err := op.Run(stored, true)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(100, func() {
			if _, write, _, err := op.Run(stored, true); err != nil || !write {
				t.Fatal(write, err)
			}
		})
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 101 // AllocsPerRun's warm-up run too
		if allocs > 9 {
			t.Errorf("an append to the bytes of %d records: %.0f allocs, want <= 9", n, allocs)
		}
		if max := float64(len(next.([]byte)) + cap(reply.([]byte)) + 512); bytes > max {
			t.Errorf("an append to the bytes of %d records: %.0f B, want <= %.0f", n, bytes, max)
		}
		t.Logf("%d records: %.0f allocations, %.0f B (kept encoding %d B)", n, allocs, bytes, len(next.([]byte)))
	}
}

// TestDaemonCodecAppendAllocs is the gate of a daemon's journal writing a
// whole stored value: DaemonCodec sizes a bucket's encoding exactly and
// appends Marshal's bytes for it in place, with no allocation into a buffer
// of that size (three, and the encoding's size again, through Marshal).
func TestDaemonCodecAppendAllocs(t *testing.T) {
	var codec DaemonCodec
	for _, n := range []int{0, 50, 100} {
		stored, _, _ := opRunCase(n)
		if n == 0 {
			stored = MarshalBucket(core.NewBucket(bitlabel.Root(2), nil))
		}
		for _, v := range []any{stored, []byte(nil), []byte{}} {
			want, err := codec.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := codec.MarshalSize(v); got != len(want) {
				t.Fatalf("%d records: MarshalSize %d, Marshal writes %d bytes", n, got, len(want))
			}
			got, err := codec.AppendMarshal([]byte("prefix"), v)
			if err != nil || string(got) != "prefix"+string(want) {
				t.Fatalf("%d records: AppendMarshal = %x, %v; want the prefix and Marshal's %x", n, got, err, want)
			}
		}
		if dhttest.RaceEnabled() {
			continue // race instrumentation allocates
		}
		var v any = stored // boxed once, as a journal's record holds it
		buf := make([]byte, 0, codec.MarshalSize(v))
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := codec.AppendMarshal(buf, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("appending the %d-byte encoding of %d records: %.0f allocs, want 0", len(stored), n, allocs)
		}
	}
}

// TestRemoveBytesAllocs is the gate of a delete at the owner: the op decoded
// (its key and payload) and boxed, the encoding of the bucket cut from a view
// of the stored bytes, the reply, and the stored and reply bytes boxed — 8
// allocations at any record count.
func TestRemoveBytesAllocs(t *testing.T) {
	for _, n := range []int{50, 100} {
		stored, _, op := opRunCase(n)
		allocs := testing.AllocsPerRun(100, func() {
			if _, write, _, err := op.Run(stored, true); err != nil || !write {
				t.Fatal(write, err)
			}
		})
		if allocs > 8 {
			t.Errorf("a remove on the bytes of %d records: %.0f allocs, want <= 8", n, allocs)
		}
	}
}
