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
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	src := newIndex(t, index.Tuning{Capacity: 15, MergeThreshold: 7})
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
	restored, err := RestoreInto(dht.MustNewLocal(16), bytes.NewReader(buf.Bytes()), index.Tuning{
		Capacity: 15, MergeThreshold: 7,
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

// TestRestoreIntoHonoursStackOptions: a restored index is configured by the
// same Tuning fields as a New one — in particular the ones that add layers,
// the lookup cache and the retry decorator (with its trace of attempts).
func TestRestoreIntoHonoursStackOptions(t *testing.T) {
	src := newIndex(t, index.Tuning{Capacity: 4})
	for _, rec := range rerunRecords {
		if err := src.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	flaky := dhttest.NewFlaky(dht.MustNewLocal(4))
	tc := trace.NewCollector()
	restored, err := RestoreInto(flaky, &buf, index.Tuning{
		Capacity:  4,
		CacheSize: 64,
		Retry:     &dht.RetryPolicy{MaxAttempts: 4, Sleep: dht.NoSleep},
		Trace:     tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored.ResilienceStats() == nil {
		t.Fatal("ResilienceStats() = nil: the retry layer was not built")
	}
	key := rerunRecords[0].Key
	for i := 0; i < 2; i++ { // the first lookup fills the cache, the second hits it
		if got, err := restored.Exact(key); err != nil || len(got) != 1 {
			t.Fatalf("Exact(%v) = %v, %v", key, got, err)
		}
	}
	if hits := restored.Stats().CacheHits; hits == 0 {
		t.Error("no cache hit on a repeated lookup: the cache was not built")
	}
	// One injected failure is absorbed below the index and shows in the trace.
	flaky.FailAll(1)
	if got, err := restored.Exact(key); err != nil || len(got) != 1 {
		t.Fatalf("Exact(%v) over one injected failure = %v, %v", key, got, err)
	}
	if r := restored.ResilienceStats().Snapshot(); r.Retries != 1 || r.Recovered != 1 {
		t.Errorf("retries/recovered = %d/%d, want 1/1", r.Retries, r.Recovered)
	}
	attempts := 0
	for _, sp := range tc.Spans() {
		if sp.Kind == trace.KindAttempt {
			attempts++
		}
	}
	if attempts == 0 {
		t.Error("no attempt span recorded: the retry layer has no tracer")
	}
}

func TestSnapshotEmptyIndex(t *testing.T) {
	src := newIndex(t, index.Tuning{})
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInto(dht.MustNewLocal(4), bytes.NewReader(buf.Bytes()), index.Tuning{})
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
	src := newIndex(t, index.Tuning{})
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
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(bad), index.Tuning{}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("bad magic: %v", err)
	}
	// Dim mismatch against options.
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(good), index.Tuning{Dims: 3}); !errors.Is(err, ErrSnapshot) {
		t.Errorf("dim mismatch: %v", err)
	}
	// Truncations anywhere must error, not panic.
	for cut := 1; cut < len(good); cut += 3 {
		if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(good[:cut]), index.Tuning{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Non-empty substrate refused.
	d := dht.MustNewLocal(2)
	if _, err := New(d, index.Tuning{}); err != nil {
		t.Fatal(err)
	}
	ix2, _ := New(d, index.Tuning{})
	if err := ix2.Insert(spatial.Record{Key: spatial.Point{0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreInto(d, bytes.NewReader(good), index.Tuning{}); err == nil {
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
	if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, good)), index.Tuning{}); err != nil {
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
		if _, err := RestoreInto(dht.MustNewLocal(2), bytes.NewReader(snapshotOf(2, frame)), index.Tuning{}); !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: err = %v, want ErrSnapshot", name, err)
		}
	}
}
