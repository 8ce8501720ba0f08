package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestShapeQueryCircleAgainstScan: circle queries return exactly the
// records a linear scan finds, with and without parallel lookahead.
func TestShapeQueryCircleAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ix := newIndex(t, index.Tuning{Capacity: 12, MergeThreshold: 6})
	points := randomPoints(rng, 2, 2500)
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 60; trial++ {
		c := spatial.Circle{
			Center: spatial.Point{rng.Float64(), rng.Float64()},
			Radius: rng.Float64() * 0.3,
		}
		want := 0
		for _, p := range points {
			if c.ContainsPoint(p) {
				want++
			}
		}
		res, err := ix.ShapeQuery(c)
		if err != nil {
			t.Fatalf("ShapeQuery(%+v): %v", c, err)
		}
		if len(res.Records) != want {
			t.Fatalf("ShapeQuery(%+v) = %d records, scan %d", c, len(res.Records), want)
		}
		pres, err := ix.ShapeQueryParallel(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(pres.Records) != want {
			t.Fatalf("parallel ShapeQuery = %d records, scan %d", len(pres.Records), want)
		}
		// Pruning must not cost more lookups than the bounding-box query.
		bb := c.BoundingBox()
		bres, err := ix.RangeQuery(bb)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lookups > bres.Lookups {
			t.Fatalf("circle query %d lookups exceeds bounding box %d", res.Lookups, bres.Lookups)
		}
	}
}

func TestShapeQueryValidation(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if _, err := ix.ShapeQuery(nil); err == nil {
		t.Error("nil shape accepted")
	}
	if _, err := ix.ShapeQueryParallel(spatial.Circle{Center: spatial.Point{0.5, 0.5}, Radius: 0.1}, 0); err == nil {
		t.Error("h=0 accepted")
	}
	// Wrong-dimension shape.
	c := spatial.Circle{Center: spatial.Point{0.5}, Radius: 0.1}
	if _, err := ix.ShapeQuery(c); !errors.Is(err, ErrDimension) {
		t.Errorf("wrong-dim shape: %v", err)
	}
}

// knnOracle returns the exact k nearest records by linear scan.
func knnOracle(records []spatial.Record, p spatial.Point, k int) []string {
	type cand struct {
		d    float64
		data string
	}
	cands := make([]cand, len(records))
	for i, r := range records {
		cands[i] = cand{d: math.Sqrt(spatial.DistSq(r.Key, p)), data: r.Data}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].data < cands[j].data
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.data
	}
	return out
}

func TestNearestAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := newIndex(t, index.Tuning{Capacity: 15, MergeThreshold: 7})
	var records []spatial.Record
	for i, p := range clusteredPoints(rng, 2, 1500) {
		rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
		records = append(records, rec)
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 40; trial++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		k := 1 + rng.Intn(20)
		res, err := ix.Nearest(p, k)
		if err != nil {
			t.Fatalf("Nearest(%v, %d): %v", p, k, err)
		}
		want := knnOracle(records, p, k)
		if len(res.Neighbors) != len(want) {
			t.Fatalf("Nearest(%v, %d) = %d results, want %d", p, k, len(res.Neighbors), len(want))
		}
		for i, nb := range res.Neighbors {
			if nb.Record.Data != want[i] {
				t.Fatalf("Nearest(%v, %d)[%d] = %s (d=%f), want %s",
					p, k, i, nb.Record.Data, nb.Distance, want[i])
			}
		}
		// Distances are sorted.
		for i := 1; i < len(res.Neighbors); i++ {
			if res.Neighbors[i].Distance < res.Neighbors[i-1].Distance {
				t.Fatal("neighbours not sorted by distance")
			}
		}
		if res.Lookups < 1 || res.Rounds < 1 {
			t.Fatalf("implausible cost %+v", res)
		}
	}
}

func TestNearestSmallIndex(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	// k larger than the dataset returns everything.
	for i := 0; i < 3; i++ {
		p := spatial.Point{0.1 * float64(i+1), 0.2}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Nearest(spatial.Point{0.5, 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 3 {
		t.Fatalf("Nearest on 3-record index = %d results", len(res.Neighbors))
	}
	// Empty index returns no neighbours.
	empty := newIndex(t, index.Tuning{})
	res, err = empty.Nearest(spatial.Point{0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 {
		t.Fatalf("Nearest on empty index = %d results", len(res.Neighbors))
	}
}

func TestNearestValidation(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if _, err := ix.Nearest(spatial.Point{0.5}, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("wrong-dim: %v", err)
	}
	if _, err := ix.Nearest(spatial.Point{0.5, 0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ix.Nearest(spatial.Point{1.5, 0.5}, 1); err == nil {
		t.Error("out-of-cube point accepted")
	}
}

func TestNearestExactPointQuery(t *testing.T) {
	ix := newIndex(t, index.Tuning{Capacity: 5, MergeThreshold: 2})
	target := spatial.Point{0.3, 0.7}
	if err := ix.Insert(spatial.Record{Key: target, Data: "bullseye"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		if err := ix.Insert(spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Nearest(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].Record.Data != "bullseye" || res.Neighbors[0].Distance != 0 {
		t.Fatalf("Nearest at exact point = %+v", res.Neighbors)
	}
}

// TestSphereQuery3D: the circle shape works in any dimensionality (it is a
// Euclidean ball); check 3-D against a linear scan.
func TestSphereQuery3D(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ix := newIndex3D(t)
	var points []spatial.Point
	for i := 0; i < 1200; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		points = append(points, p)
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 25; trial++ {
		ball := spatial.Circle{
			Center: spatial.Point{rng.Float64(), rng.Float64(), rng.Float64()},
			Radius: 0.05 + rng.Float64()*0.3,
		}
		want := 0
		for _, p := range points {
			if ball.ContainsPoint(p) {
				want++
			}
		}
		res, err := ix.ShapeQuery(ball)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != want {
			t.Fatalf("3-D ball query = %d, scan %d", len(res.Records), want)
		}
	}
	// kNN in 3-D too.
	res, err := ix.Nearest(spatial.Point{0.5, 0.5, 0.5}, 7)
	if err != nil || len(res.Neighbors) != 7 {
		t.Fatalf("3-D Nearest: %d results, %v", len(res.Neighbors), err)
	}
}

func newIndex3D(t *testing.T) *Index {
	t.Helper()
	ix, err := New(dht.MustNewLocal(16), index.Tuning{Dims: 3, Capacity: 15, MergeThreshold: 7, MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}
