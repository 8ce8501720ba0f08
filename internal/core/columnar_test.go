package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// randomRecords draws n records in [0,1)^dims with payloads of mixed length
// (including empty, which the offset table must represent exactly).
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

// sameRecordSlice compares element-wise (order matters: the columnar store
// must preserve insertion order exactly like the old slice layout).
func sameRecordSlice(t *testing.T, got, want []spatial.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Data != want[i].Data || !samePoint(got[i].Key, want[i].Key) {
			t.Fatalf("record %d = %v %q, want %v %q",
				i, got[i].Key, got[i].Data, want[i].Key, want[i].Data)
		}
	}
}

// TestColumnarMatchesSliceLayout: a Bucket built by Append, a Bucket built
// by NewBucket, and a plain record slice agree on every accessor — the
// columnar arena layout is observationally identical to the old
// []spatial.Record field.
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

		for name, b := range map[string]Bucket{"appended": appended, "packed": packed} {
			if b.Load() != len(want) {
				t.Fatalf("%s: Load = %d, want %d", name, b.Load(), len(want))
			}
			sameRecordSlice(t, b.Records(), want)
			for i, rec := range want {
				if !samePoint(b.KeyAt(i), rec.Key) {
					t.Fatalf("%s: KeyAt(%d) = %v, want %v", name, i, b.KeyAt(i), rec.Key)
				}
				if b.DataAt(i) != rec.Data {
					t.Fatalf("%s: DataAt(%d) = %q, want %q", name, i, b.DataAt(i), rec.Data)
				}
				ri := b.RecordAt(i)
				if !samePoint(ri.Key, rec.Key) || ri.Data != rec.Data {
					t.Fatalf("%s: RecordAt(%d) = %v, want %v", name, i, ri, rec)
				}
			}
		}
	}
}

// TestColumnarCopyOnWrite: a Bucket value taken before further Appends is a
// stable snapshot — later appends (which may share arena capacity) never
// change what an older header observes. This is the invariant the insert
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

// TestColumnarSplitEquivalence: splitting a columnar bucket (the Records →
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

// TestColumnarFromArenas: a bucket built over arenas the caller packed is
// the bucket NewBucket builds from the same records, and arenas that do not
// describe each other are refused — DataAt trusts the offset table with an
// unsafe.String.
func TestColumnarFromArenas(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	records := randomRecords(rng, 40, 3)
	label := bitlabel.MustParse("0110")
	var (
		coords []float64
		data   []byte
		offs   = []uint32{0}
	)
	for _, r := range records {
		coords = append(coords, r.Key...)
		data = append(data, r.Data...)
		offs = append(offs, uint32(len(data)))
	}
	b := NewBucketColumns(label, 3, coords, offs, data)
	if b.Label != label {
		t.Fatalf("label = %v", b.Label)
	}
	sameRecordSlice(t, b.Records(), NewBucket(label, records).Records())
	sameRecordSlice(t, b.Append(records[0]).Records(), append(append([]spatial.Record{}, records...), records[0]))

	for name, build := range map[string]func(){
		"no records":         func() { NewBucketColumns(label, 3, nil, []uint32{0}, nil) },
		"coords too short":   func() { NewBucketColumns(label, 3, coords[1:], offs, data) },
		"data too long":      func() { NewBucketColumns(label, 3, coords, offs, append(data[:len(data):len(data)], 'x')) },
		"offsets decreasing": func() { NewBucketColumns(label, 1, []float64{0, 0}, []uint32{0, 5, 3}, []byte("abc")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			build()
		}()
	}
}

// TestBucketAppendZeroAlloc is the scale gate: once arena capacity exists,
// Append performs no allocations — a 10M-record ingest must not pay a heap
// object per record.
func TestBucketAppendZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seed := randomRecords(rng, 100, 2)
	b := NewBucket(bitlabel.Root(2), seed)
	rec := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "x"}
	// First append grows the exact-size arenas; subsequent appends into the
	// doubled capacity must be allocation-free.
	b = b.Append(rec)
	base := b
	allocs := testing.AllocsPerRun(20, func() {
		_ = base.Append(rec)
	})
	if allocs != 0 {
		t.Fatalf("Bucket.Append allocates %.1f objects/op with spare capacity, want 0", allocs)
	}
}

// FuzzColumnarRoundTrip: arbitrary byte strings drive record construction;
// the columnar store and the plain slice must stay observationally equal
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
			if got[i].Data != want[i].Data || !samePoint(got[i].Key, want[i].Key) {
				t.Fatalf("record %d differs", i)
			}
		}
	})
}
