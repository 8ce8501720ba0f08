package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	src := newIndex(t, Options{ThetaSplit: 15, ThetaMerge: 7})
	var records []spatial.Record
	for i, p := range clusteredPoints(rng, 2, 2000) {
		rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
		records = append(records, rec)
		if err := src.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInto(dht.MustNewLocal(16), bytes.NewReader(buf.Bytes()), Options{
		ThetaSplit: 15, ThetaMerge: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Identical structure.
	srcBuckets, err := src.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	dstBuckets, err := restored.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(srcBuckets) != len(dstBuckets) {
		t.Fatalf("restored %d buckets, want %d", len(dstBuckets), len(srcBuckets))
	}
	// Identical behaviour: lookups and range queries match.
	for _, rec := range records[:200] {
		got, err := restored.Exact(rec.Key)
		if err != nil || len(got) != 1 || got[0].Data != rec.Data {
			t.Fatalf("restored Exact(%v) = %v, %v", rec.Key, got, err)
		}
	}
	for trial := 0; trial < 30; trial++ {
		q := randomRect(rng, 2)
		a, err := src.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecordSet(a.Records, b.Records) {
			t.Fatalf("restored RangeQuery(%v) differs: %d vs %d", q, len(b.Records), len(a.Records))
		}
	}
	// The restored index keeps working as a live index.
	if err := restored.Insert(spatial.Record{Key: spatial.Point{0.123, 0.456}, Data: "post-restore"}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmptyIndex(t *testing.T) {
	src := newIndex(t, Options{})
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInto(dht.MustNewLocal(4), bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := restored.Size(); err != nil || n != 0 {
		t.Fatalf("restored Size = %d, %v", n, err)
	}
	// And usable.
	if err := restored.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreValidation(t *testing.T) {
	src := newIndex(t, Options{})
	if err := src.Insert(spatial.Record{Key: spatial.Point{0.2, 0.8}, Data: "x"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Wrong magic.
	bad := append([]byte("NOTASNAP??"), good[10:]...)
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(bad), Options{}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("bad magic: %v", err)
	}
	// Dim mismatch against options.
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(good), Options{Dims: 3}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("dim mismatch: %v", err)
	}
	// Truncations anywhere must error, not panic.
	for cut := 1; cut < len(good); cut += 3 {
		if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(good[:cut]), Options{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Non-empty substrate refused.
	d := dht.MustNewLocal(2)
	if _, err := New(d, Options{}); err != nil {
		t.Fatal(err)
	}
	ix2, _ := New(d, Options{})
	if err := ix2.Insert(spatial.Record{Key: spatial.Point{0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreInto(d, bytes.NewReader(good), Options{}); err == nil {
		t.Error("restore onto non-empty substrate accepted")
	}
}

// snapshotOf frames the given bucket encodings as a snapshot stream of the
// given dimensionality.
func snapshotOf(dims int, frames ...[]byte) []byte {
	out := []byte(snapshotMagic)
	out = binary.AppendUvarint(out, snapshotVersion)
	out = binary.AppendUvarint(out, uint64(dims))
	out = binary.AppendUvarint(out, uint64(len(frames)))
	for _, f := range frames {
		out = binary.AppendUvarint(out, uint64(len(f)))
		out = append(out, f...)
	}
	return out
}

// TestRestoreRejectsHostileFrames: a snapshot is a file someone hands us.
// Restore decodes its frames with the one bucket decoder (so the checks PR 18
// gave the wire hold here too) and judges what only it can: that the bucket
// belongs to this index.
func TestRestoreRejectsHostileFrames(t *testing.T) {
	// The committed wire fuzz entry: a 2-D root bucket whose second record
	// has one coordinate.
	corpus, err := os.ReadFile("../wire/testdata/fuzz/FuzzUnmarshalBucket/mixed-dims")
	if err != nil {
		t.Fatal(err)
	}
	lit := string(corpus[bytes.Index(corpus, []byte(`"`)) : bytes.LastIndex(corpus, []byte(`"`))+1])
	mixedDims, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	root := bitlabel.Root(2)
	in := spatial.Record{Key: spatial.Point{0.25, 0.25}, Data: "x"}
	good := NewBucket(root, []spatial.Record{in}).Marshal()
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, good)), Options{}); err != nil {
		t.Fatalf("well-formed frame refused: %v", err)
	}
	hugeCount := append(append([]byte{}, good[:9]...), 0xff, 0xff, 0xff, 0xff, 0x0f)
	for name, frame := range map[string][]byte{
		"mixed dims":          []byte(mixedDims),
		"count beyond frame":  hugeCount,
		"trailing bytes":      append(append([]byte{}, good...), 0),
		"label off the root":  NewBucket(bitlabel.Root(3), nil).Marshal(),
		"3-D records in 2-D":  NewBucket(root, []spatial.Record{{Key: spatial.Point{0.1, 0.1, 0.1}}}).Marshal(),
		"record outside cell": NewBucket(root.MustAppend(1), []spatial.Record{in}).Marshal(),
		"record outside cube": NewBucket(root, []spatial.Record{{Key: spatial.Point{0.5, 1.5}}}).Marshal(),
	} {
		if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, frame)), Options{}); !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: err = %v, want ErrSnapshot", name, err)
		}
	}
}
