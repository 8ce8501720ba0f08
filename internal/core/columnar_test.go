package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht/dhttest"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// randomRecords draws n records in [0,1)^dims with payloads of mixed length
// (including empty, which the encoding must represent exactly).
func randomRecords(rng *rand.Rand, n, dims int) []spatial.Record {
	out := make([]spatial.Record, n)
	for i := range out {
		p := make(spatial.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		data := ""
		if rng.Intn(4) != 0 {
			data = fmt.Sprintf("rec-%d-%c", i, 'a'+rng.Intn(26))
		}
		out[i] = spatial.Record{Key: p, Data: data}
	}
	return out
}

// sameRecordSlice compares element-wise (order matters: the bucket must
// preserve insertion order exactly like a slice).
func sameRecordSlice(t *testing.T, got, want []spatial.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Data != want[i].Data || !slices.Equal(got[i].Key, want[i].Key) {
			t.Fatalf("record %d = %v %q, want %v %q",
				i, got[i].Key, got[i].Data, want[i].Key, want[i].Data)
		}
	}
}

// TestColumnarMatchesSliceLayout: a Bucket built by Append, a Bucket built
// by NewBucket, one decoded from its encoding, and a plain record slice agree
// on every accessor — the encoded layout is observationally identical to a
// []spatial.Record.
func TestColumnarMatchesSliceLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	label := bitlabel.MustParse("0011")
	for trial := 0; trial < 200; trial++ {
		dims := 1 + rng.Intn(3)
		want := randomRecords(rng, rng.Intn(40), dims)

		appended := Bucket{Label: label}
		for _, rec := range want {
			appended = appended.Append(rec)
		}
		packed := NewBucket(label, want)

		decoded, err := UnmarshalBucket(packed.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]Bucket{"appended": appended, "packed": packed, "decoded": decoded} {
			if b.Load() != len(want) {
				t.Fatalf("%s: Load = %d, want %d", name, b.Load(), len(want))
			}
			sameRecordSlice(t, b.Records(), want)
			for i, rec := range want {
				if !slices.Equal(b.KeyAt(i), rec.Key) {
					t.Fatalf("%s: KeyAt(%d) = %v, want %v", name, i, b.KeyAt(i), rec.Key)
				}
				if b.DataAt(i) != rec.Data {
					t.Fatalf("%s: DataAt(%d) = %q, want %q", name, i, b.DataAt(i), rec.Data)
				}
				ri := b.RecordAt(i)
				if !slices.Equal(ri.Key, rec.Key) || ri.Data != rec.Data {
					t.Fatalf("%s: RecordAt(%d) = %v, want %v", name, i, ri, rec)
				}
			}
		}
	}
}

// TestColumnarCopyOnWrite: a Bucket value taken before further Appends is a
// stable snapshot — later appends (which may share its spare capacity) never
// change what an older value observes. This is the invariant the insert
// path's lock-free readers rely on.
func TestColumnarCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomRecords(rng, 64, 2)
	b := Bucket{Label: bitlabel.MustParse("001")}
	snaps := make([]Bucket, 0, len(recs)+1)
	for _, rec := range recs {
		snaps = append(snaps, b)
		b = b.Append(rec)
	}
	snaps = append(snaps, b)
	for k, s := range snaps {
		if s.Load() != k {
			t.Fatalf("snapshot %d: Load = %d", k, s.Load())
		}
		sameRecordSlice(t, s.Records(), recs[:k])
	}
}

// TestColumnarSplitEquivalence: splitting a bucket (the Records →
// decideSplit path SplitRule.Append takes) partitions exactly the records the
// equivalent slice layout holds — every piece's contents round-trip through
// NewBucket unchanged and the union is the original set.
func TestColumnarSplitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rule := SplitRule{Dims: 2, MaxDepth: 28, Strategy: SplitThreshold, ThetaSplit: 4}

	records := randomRecords(rng, 64, 2)
	root := bitlabel.Root(2)
	b := NewBucket(root, records)
	cell := kdtree.Cell{Label: root, Region: spatial.UnitCube(2), Records: b.Records()}
	pieces, err := rule.decideSplit(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) <= 1 {
		t.Fatalf("expected an overfull root to split, got %d pieces", len(pieces))
	}
	var union []spatial.Record
	for _, piece := range pieces {
		pb := NewBucket(piece.Label, piece.Records)
		sameRecordSlice(t, pb.Records(), piece.Records)
		union = append(union, pb.Records()...)
	}
	if len(union) != len(records) {
		t.Fatalf("split moved %d records, want %d", len(union), len(records))
	}
	if !sameRecordSet(union, records) {
		t.Fatal("split pieces do not partition the original records")
	}
}

// TestBucketAppendZeroAlloc is the scale gate: once spare capacity exists,
// Append performs no allocations — a 10M-record ingest must not pay a heap
// object per record.
func TestBucketAppendZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seed := randomRecords(rng, 100, 2)
	b := NewBucket(bitlabel.Root(2), seed)
	rec := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "x"}
	// First append grows the exact-size slice; subsequent appends into the
	// grown capacity must be allocation-free.
	b = b.Append(rec)
	base := b
	allocs := testing.AllocsPerRun(20, func() {
		_ = base.Append(rec)
	})
	if allocs != 0 {
		t.Fatalf("Bucket.Append allocates %.1f objects/op with spare capacity, want 0", allocs)
	}
}

// TestRemoveMatchesRepack: Remove at every position — the first, the last,
// the only record — leaves what NewBucket packs from the survivors: the same
// records in the same order, the same encoding, a slice of exactly its size;
// and the stored bucket, packed or grown by appends into spare capacity,
// reads as it did.
func TestRemoveMatchesRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	label := bitlabel.Root(2)
	for _, n := range []int{1, 2, 3, 17} {
		records := randomRecords(rng, n, 2)
		appended := Bucket{Label: label}
		for _, rec := range records {
			appended = appended.Append(rec)
		}
		for name, stored := range map[string]Bucket{"packed": NewBucket(label, records), "appended": appended} {
			before := stored.Marshal()
			for i, rec := range records {
				out := Remove(stored, rec.Key, rec.Data)
				survivors := append(append([]spatial.Record{}, records[:i]...), records[i+1:]...)
				want := NewBucket(label, survivors)
				if !out.Removed || out.Load != n-1 || out.Keep.Label != label || out.Keep.Load() != n-1 {
					t.Fatalf("%s n=%d: Remove(%d) = %+v", name, n, i, out)
				}
				sameRecordSlice(t, out.Keep.Records(), survivors)
				if !bytes.Equal(out.Keep.Marshal(), want.Marshal()) {
					t.Fatalf("%s n=%d: Remove(%d) encodes differently from NewBucket of the survivors", name, n, i)
				}
				if enc := out.Keep.enc; cap(enc) != len(enc) {
					t.Fatalf("%s n=%d: Remove(%d) left %d/%d bytes: spare capacity", name, n, i, len(enc), cap(enc))
				}
				if !bytes.Equal(stored.Marshal(), before) {
					t.Fatalf("%s n=%d: Remove(%d) changed the stored bucket", name, n, i)
				}
			}
		}
	}
}

// TestRemoveAllocs is the delete path's allocation gate: the survivors'
// encodings, at any load — no record slice, no Point or string per record,
// and no cell for the covering test.
func TestRemoveAllocs(t *testing.T) {
	if dhttest.RaceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(31))
	stored := NewBucket(bitlabel.Root(2), randomRecords(rng, 50, 2))
	key, data := stored.KeyAt(20), stored.DataAt(20)
	allocs := testing.AllocsPerRun(50, func() {
		if !Remove(stored, key, data).Removed {
			t.Fatal("nothing removed")
		}
	})
	if allocs > 1 {
		t.Fatalf("Remove allocates %.1f objects, want ≤ 1: the survivors' encodings", allocs)
	}
}

// FuzzColumnarRoundTrip: arbitrary byte strings drive record construction;
// the encoded store and the plain slice must stay observationally equal
// under any append sequence.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 200, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		dims := 1 + int(len(data))%3
		var want []spatial.Record
		b := Bucket{Label: bitlabel.MustParse("01")}
		for i := 0; i+dims <= len(data); i += dims {
			p := make(spatial.Point, dims)
			for d := 0; d < dims; d++ {
				p[d] = float64(data[i+d]) / 256
			}
			rec := spatial.Record{Key: p, Data: string(data[i : i+dims])}
			want = append(want, rec)
			b = b.Append(rec)
		}
		if b.Load() != len(want) {
			t.Fatalf("Load = %d, want %d", b.Load(), len(want))
		}
		got := b.Records()
		for i := range want {
			if got[i].Data != want[i].Data || !slices.Equal(got[i].Key, want[i].Key) {
				t.Fatalf("record %d differs", i)
			}
		}
	})
}
