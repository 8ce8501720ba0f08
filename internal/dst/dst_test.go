package dst

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

func newIndex(t *testing.T, opts index.Tuning) *Index {
	t.Helper()
	ix, err := New(dht.MustNewLocal(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func randomPoints(rng *rand.Rand, m, n int) []spatial.Point {
	out := make([]spatial.Point, n)
	for i := range out {
		p := make(spatial.Point, m)
		for d := range p {
			p[d] = rng.Float64()
		}
		out[i] = p
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	d := dht.MustNewLocal(2)
	bad := []index.Tuning{
		{Dims: -1},
		{Dims: 2, MaxDepth: 100},
		{Dims: 2, Capacity: -1},
	}
	for i, o := range bad {
		if _, err := New(d, o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
	// The depth bound is this scheme's own: a z-order label is D bits.
	if _, err := New(dht.MustNewLocal(2), index.Tuning{MaxDepth: bitlabel.MaxLen}); err != nil {
		t.Errorf("MaxDepth = MaxLen rejected: %v", err)
	}
	if _, err := New(dht.MustNewLocal(2), index.Tuning{MaxDepth: bitlabel.MaxLen + 1}); err == nil {
		t.Error("MaxDepth = MaxLen+1 accepted")
	}
	ix := newIndex(t, index.Tuning{})
	o := ix.Tuning()
	if o.Dims != 2 || o.MaxDepth != 28 || o.Capacity != 100 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestInsertLookup(t *testing.T) {
	ix := newIndex(t, index.Tuning{MaxDepth: 20, Capacity: 8})
	rng := rand.New(rand.NewSource(1))
	points := randomPoints(rng, 2, 150)
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
	}
	for i, p := range points {
		recs, err := ix.Lookup(p)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", p, err)
		}
		if len(recs) != 1 || recs[0].Data != fmt.Sprintf("r%d", i) {
			t.Fatalf("Lookup(%v) = %v", p, recs)
		}
	}
	if recs, err := ix.Lookup(spatial.Point{0.123, 0.987}); err != nil || len(recs) != 0 {
		t.Errorf("Lookup(absent) = %v, %v", recs, err)
	}
	if _, err := ix.Lookup(spatial.Point{0.5}); err == nil {
		t.Error("wrong-dim lookup accepted")
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.5}}); err == nil {
		t.Error("wrong-dim insert accepted")
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{3, 3}}); err == nil {
		t.Error("out-of-cube insert accepted")
	}
}

func TestReplicationCost(t *testing.T) {
	// With a large capacity nothing saturates: every insert stores at all
	// Height+1 levels and costs Height+1 DHT operations.
	height := 12
	ix := newIndex(t, index.Tuning{MaxDepth: height, Capacity: 1000})
	before := ix.Stats()
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.3, 0.7}}); err != nil {
		t.Fatal(err)
	}
	delta := ix.Stats().Sub(before)
	if want := int64(height + 1); delta.DHTLookups != want {
		t.Errorf("DHTLookups per insert = %d, want %d", delta.DHTLookups, want)
	}
	if want := int64(height + 1); delta.RecordsMoved != want {
		t.Errorf("RecordsMoved per insert = %d, want %d", delta.RecordsMoved, want)
	}
}

func TestSaturationReducesMovement(t *testing.T) {
	// With capacity 1, upper levels saturate almost immediately: movement
	// per insert drops well below Height+1 while lookups stay at Height+1.
	height := 16
	ix := newIndex(t, index.Tuning{MaxDepth: height, Capacity: 1})
	rng := rand.New(rand.NewSource(2))
	for _, p := range randomPoints(rng, 2, 64) {
		if err := ix.Insert(spatial.Record{Key: p}); err != nil {
			t.Fatal(err)
		}
	}
	s := ix.Stats()
	if want := int64(64 * (height + 1)); s.DHTLookups != want {
		t.Errorf("DHTLookups = %d, want %d", s.DHTLookups, want)
	}
	// With 64 records the top ~6 levels saturate: replication stops there,
	// so movement must fall well below full replication (= DHTLookups).
	if s.RecordsMoved > s.DHTLookups*3/4 {
		t.Errorf("saturation did not reduce movement: moved=%d lookups=%d", s.RecordsMoved, s.DHTLookups)
	}
}

func TestRangeAgainstScan(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			ix := newIndex(t, index.Tuning{Dims: m, MaxDepth: 14, Capacity: 10})
			rng := rand.New(rand.NewSource(int64(m)))
			points := randomPoints(rng, m, 500)
			var records []spatial.Record
			for i, p := range points {
				rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
				records = append(records, rec)
				if err := ix.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 40; trial++ {
				q := randomRect(rng, m)
				want := 0
				for _, r := range records {
					if q.Contains(r.Key) {
						want++
					}
				}
				res, err := ix.RangeQuery(q)
				if err != nil {
					t.Fatalf("RangeQuery(%v): %v", q, err)
				}
				if len(res.Records) != want {
					t.Fatalf("RangeQuery(%v) = %d, scan %d", q, len(res.Records), want)
				}
				if res.Lookups < 1 || res.Rounds < 1 {
					t.Fatalf("implausible cost %+v", res)
				}
			}
		})
	}
}

func randomRect(rng *rand.Rand, m int) spatial.Rect {
	lo := make(spatial.Point, m)
	hi := make(spatial.Point, m)
	for d := 0; d < m; d++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return spatial.Rect{Lo: lo, Hi: hi}
}

// TestSmallRangeConstantRounds pins DST's selling point: a small range over
// unsaturated cells resolves in one parallel round.
func TestSmallRangeConstantRounds(t *testing.T) {
	ix := newIndex(t, index.Tuning{MaxDepth: 16, Capacity: 10000})
	rng := rand.New(rand.NewSource(3))
	var records []spatial.Record
	for i, p := range randomPoints(rng, 2, 500) {
		rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
		records = append(records, rec)
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := spatial.NewRect(spatial.Point{0.4, 0.4}, spatial.Point{0.45, 0.45})
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("unsaturated small range took %d rounds, want 1", res.Rounds)
	}
	want := 0
	for _, r := range records {
		if q.Contains(r.Key) {
			want++
		}
	}
	if len(res.Records) != want {
		t.Errorf("records = %d, want %d", len(res.Records), want)
	}
}

// TestSaturationForcesDescent: with tiny capacity, a large range hits
// saturated canonical cells and needs multiple rounds.
func TestSaturationForcesDescent(t *testing.T) {
	ix := newIndex(t, index.Tuning{MaxDepth: 16, Capacity: 2})
	rng := rand.New(rand.NewSource(4))
	for i, p := range randomPoints(rng, 2, 400) {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := spatial.NewRect(spatial.Point{0.1, 0.1}, spatial.Point{0.9, 0.9})
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 3 {
		t.Errorf("saturated large range took %d rounds, expected a descent", res.Rounds)
	}
}

func TestDelete(t *testing.T) {
	ix := newIndex(t, index.Tuning{MaxDepth: 12, Capacity: 50})
	rng := rand.New(rand.NewSource(5))
	points := randomPoints(rng, 2, 100)
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range points {
		ok, err := ix.Delete(p, fmt.Sprintf("r%d", i))
		if err != nil || !ok {
			t.Fatalf("Delete #%d = %v, %v", i, ok, err)
		}
	}
	// Everything gone, at every level.
	q, _ := spatial.NewRect(spatial.Point{0, 0}, spatial.Point{1, 1})
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("%d records remain after deleting all", len(res.Records))
	}
	if ok, err := ix.Delete(spatial.Point{0.42, 0.42}, ""); err != nil || ok {
		t.Errorf("Delete(absent) = %v, %v", ok, err)
	}
	if _, err := ix.Delete(spatial.Point{0.5}, ""); err == nil {
		t.Error("wrong-dim delete accepted")
	}
}

func TestBoundaryDecompositionGrowsWithHeight(t *testing.T) {
	// The same range decomposes into far more cells at a larger height —
	// the §7.4 bandwidth explosion.
	count := func(height int) int {
		ix := newIndex(t, index.Tuning{MaxDepth: height, Capacity: 100})
		q, _ := spatial.NewRect(spatial.Point{0.21, 0.21}, spatial.Point{0.59, 0.59})
		var cells []any
		var labels []struct{}
		_ = labels
		var canonical int
		// Reach into the decomposition through a query on an empty index:
		// every canonical cell costs exactly one lookup.
		res, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		canonical = res.Lookups
		_ = cells
		return canonical
	}
	small := count(8)
	large := count(16)
	if large < 4*small {
		t.Errorf("decomposition: height 8 → %d cells, height 16 → %d; expected ≥ 4× growth", small, large)
	}
}

func TestRangeQueryValidation(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if _, err := ix.RangeQuery(spatial.Rect{Lo: spatial.Point{0.1}, Hi: spatial.Point{0.2}}); err == nil {
		t.Error("wrong-dim query accepted")
	}
	bad := spatial.Rect{Lo: spatial.Point{0.5, 0.5}, Hi: spatial.Point{0.1, 0.1}}
	if _, err := ix.RangeQuery(bad); err == nil {
		t.Error("inverted rect accepted")
	}
}
