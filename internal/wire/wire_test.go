package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestPointRoundTripQuick: a key of any dimensionality comes back from a
// bucket's encoding coordinate for coordinate.
func TestPointRoundTripQuick(t *testing.T) {
	f := func(coords []float64) bool {
		for i, c := range coords {
			if math.IsNaN(c) {
				coords[i] = 0 // NaN != NaN; the index never stores NaN
			}
		}
		p := spatial.Point(coords)
		back, err := UnmarshalBucket(MarshalBucket(core.NewBucket(bitlabel.Root(2), []spatial.Record{{Key: p}})))
		if err != nil || back.Load() != 1 {
			return false
		}
		key := back.KeyAt(0)
		if len(key) != len(p) {
			return false
		}
		for i := range p {
			if key[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(x, y float64, data string) bool {
		if math.IsNaN(x) {
			x = 0
		}
		if math.IsNaN(y) {
			y = 0
		}
		r := spatial.Record{Key: spatial.Point{x, y}, Data: data}
		back, rest, err := decodeRecord(AppendRecord(nil, r))
		return err == nil && len(rest) == 0 && back.Data == r.Data &&
			back.Key[0] == x && back.Key[1] == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func randomBucket(rng *rand.Rand) core.Bucket {
	label := bitlabel.Root(2)
	for i := rng.Intn(20); i > 0; i-- {
		label = label.MustAppend(byte(rng.Intn(2)))
	}
	b := core.Bucket{Label: label}
	for i := rng.Intn(30); i > 0; i-- {
		b = b.Append(spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("payload-%d-%c", i, 'a'+rng.Intn(26)),
		})
	}
	return b
}

func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		b := randomBucket(rng)
		back, err := UnmarshalBucket(MarshalBucket(b))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.Label != b.Label || back.Load() != b.Load() {
			t.Fatalf("bucket differs after round trip")
		}
		for i, n := 0, b.Load(); i < n; i++ {
			if back.DataAt(i) != b.DataAt(i) ||
				back.KeyAt(i).String() != b.KeyAt(i).String() {
				t.Fatalf("record %d differs", i)
			}
		}
	}
	// Empty bucket.
	empty := core.Bucket{Label: bitlabel.Root(2)}
	back, err := UnmarshalBucket(MarshalBucket(empty))
	if err != nil || back.Label != empty.Label || back.Load() != 0 {
		t.Fatalf("empty bucket round trip: %+v, %v", back, err)
	}
}

func TestUnmarshalBucketRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{65, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // label length 65
		append(MarshalBucket(core.Bucket{Label: bitlabel.Root(2)}), 0xFF), // trailing bytes
	}
	for i, c := range cases {
		if _, err := UnmarshalBucket(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated valid encoding.
	full := MarshalBucket(core.NewBucket(bitlabel.Root(2),
		[]spatial.Record{{Key: spatial.Point{0.5, 0.5}, Data: "x"}}))
	for cut := 1; cut < len(full); cut++ {
		if _, err := UnmarshalBucket(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestUnmarshalBucketRejectsMixedDims: the bytes arrive from daemons. Two
// records of two and of one dimension used to decode without error into a
// bucket whose second key read <0.3, 0> — its missing coordinate taken from
// spare capacity, a slice-bounds panic when there was none.
func TestUnmarshalBucketRejectsMixedDims(t *testing.T) {
	b, err := UnmarshalBucket(mixedDimsBucket())
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("mixed-dims bucket: err = %v (load %d), want ErrMalformed", err, b.Load())
	}
}

func TestBucketCodecTypeSafety(t *testing.T) {
	var c BucketCodec
	if _, err := c.Marshal("not a bucket"); err == nil {
		t.Error("non-bucket accepted")
	}
}

// TestIndexOverByteDHT is the integration proof: the whole index workload
// runs over a substrate that only stores bytes.
func TestIndexOverByteDHT(t *testing.T) {
	byteDHT := NewByteDHT(dht.MustNewLocal(16), BucketCodec{})
	ix, err := core.New(byteDHT, index.Tuning{Capacity: 15, MergeThreshold: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var records []spatial.Record
	for i := 0; i < 1200; i++ {
		rec := spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}
		records = append(records, rec)
		if err := ix.Insert(rec); err != nil {
			t.Fatalf("Insert #%d over bytes: %v", i, err)
		}
	}
	// Exact and range queries behave identically.
	for _, rec := range records[:100] {
		got, err := ix.Exact(rec.Key)
		if err != nil || len(got) != 1 || got[0].Data != rec.Data {
			t.Fatalf("Exact over bytes: %v, %v", got, err)
		}
	}
	for trial := 0; trial < 30; trial++ {
		lo := spatial.Point{rng.Float64() * 0.7, rng.Float64() * 0.7}
		hi := spatial.Point{lo[0] + 0.2, lo[1] + 0.2}
		q, err := spatial.NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range records {
			if q.Contains(r.Key) {
				want++
			}
		}
		res, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != want {
			t.Fatalf("RangeQuery over bytes = %d, scan %d", len(res.Records), want)
		}
	}
	// Deletes (with merges) round-trip too.
	for _, rec := range records {
		ok, err := ix.Delete(rec.Key, rec.Data)
		if err != nil || !ok {
			t.Fatalf("Delete over bytes: %v, %v", ok, err)
		}
	}
	if n, err := ix.Size(); err != nil || n != 0 {
		t.Fatalf("Size after deleting all = %d, %v", n, err)
	}
	// Every stored value really is bytes.
	if err := byteDHT.inner.(dht.Enumerator).Range(func(k dht.Key, v any) bool {
		if _, ok := v.([]byte); !ok {
			t.Errorf("substrate holds %T, want []byte", v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestByteDHTRejectsNonByteSubstrateValues(t *testing.T) {
	inner := dht.MustNewLocal(1)
	if err := inner.Put("poison", 42); err != nil {
		t.Fatal(err)
	}
	b := NewByteDHT(inner, BucketCodec{})
	if _, _, err := b.Get("poison"); err == nil {
		t.Error("non-byte value decoded")
	}
	if err := b.Range(func(dht.Key, any) bool { return true }); err == nil {
		t.Error("Range over non-byte value succeeded")
	}
}
