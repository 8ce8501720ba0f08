package core

import (
	"bytes"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// FuzzRestoreInto: arbitrary bytes never panic the restorer; anything that
// restores successfully yields a structurally valid, queryable index.
func FuzzRestoreInto(f *testing.F) {
	seedIx, err := New(dht.MustNewLocal(2), index.Tuning{Capacity: 4, MergeThreshold: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := spatial.Point{float64(i%5) / 5, float64(i/5) / 4}
		if err := seedIx.Insert(spatial.Record{Key: p, Data: "s"}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := seedIx.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MLIGHTSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(data), index.Tuning{})
		if err != nil {
			return
		}
		// Whatever restored must answer a whole-space query sanely, in its
		// own dimensionality.
		m := ix.Dims()
		lo := make(spatial.Point, m)
		hi := make(spatial.Point, m)
		for d := range hi {
			hi[d] = 1
		}
		res, err := ix.RangeQuery(spatial.Rect{Lo: lo, Hi: hi})
		if err != nil {
			t.Fatalf("restored index broken: %v", err)
		}
		n, err := ix.Size()
		if err != nil || n != len(res.Records) {
			t.Fatalf("Size %d vs whole-space query %d (%v)", n, len(res.Records), err)
		}
		// Columnar round trip: every restored bucket's record set must
		// survive re-packing into fresh arenas unchanged.
		buckets, err := ix.Buckets()
		if err != nil {
			t.Fatalf("restored index not enumerable: %v", err)
		}
		for _, b := range buckets {
			repacked := NewBucket(b.Label, b.Records())
			if repacked.Load() != b.Load() || !sameRecordSet(repacked.Records(), b.Records()) {
				t.Fatalf("bucket %v does not round-trip through columnar repack", b.Label)
			}
		}
	})
}
