package kdtree

import (
	"math/rand"
	"slices"
	"testing"

	"mlight/internal/spatial"
)

func buildTree(t *testing.T, m, theta, n int, seed int64) (*Tree, []spatial.Record) {
	t.Helper()
	tr, err := NewTree(m, theta, theta/2, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rs := randomRecords(rng, m, n)
	for _, r := range rs {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tr, rs
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(0, 10, 5, 20); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewTree(2, 10, 10, 20); err == nil {
		t.Error("thetaMerge >= thetaSplit accepted")
	}
	if _, err := NewTree(2, 10, 5, 0); err == nil {
		t.Error("maxDepth=0 accepted")
	}
	if _, err := NewTree(2, 10, 5, 200); err == nil {
		t.Error("maxDepth beyond label width accepted")
	}
}

func TestTreeInsertSplits(t *testing.T) {
	tr, _ := buildTree(t, 2, 10, 400, 1)
	if tr.Size() != 400 {
		t.Errorf("Size = %d", tr.Size())
	}
	if tr.NumLeaves() < 40 {
		t.Errorf("NumLeaves = %d, expected ≥ 40 for θ=10", tr.NumLeaves())
	}
	for _, c := range tr.Leaves() {
		if c.Load() > 10 {
			t.Errorf("leaf %v load %d > θ", c.Label, c.Load())
		}
	}
	assertTiling(t, tr.Leaves(), 2)
}

func TestTreeLeafFor(t *testing.T) {
	tr, rs := buildTree(t, 2, 10, 300, 2)
	for _, r := range rs {
		c, err := tr.LeafFor(r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Region.Contains(r.Key) {
			t.Fatalf("LeafFor(%v) = %v, region %v does not contain it", r.Key, c.Label, c.Region)
		}
		found := false
		for _, stored := range c.Records {
			if slices.Equal(stored.Key, r.Key) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %v not stored in its leaf", r.Key)
		}
	}
	if _, err := tr.LeafFor(spatial.Point{0.5}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestTreeSearchMatchesLinearScan(t *testing.T) {
	tr, rs := buildTree(t, 2, 8, 500, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		lo := spatial.Point{rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := spatial.Point{lo[0] + rng.Float64()*0.2, lo[1] + rng.Float64()*0.2}
		q, err := spatial.NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range rs {
			if q.Contains(r.Key) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Search(%v) = %d records, want %d", q, len(got), want)
		}
		for _, r := range got {
			if !q.Contains(r.Key) {
				t.Fatalf("Search returned %v outside %v", r.Key, q)
			}
		}
	}
	if _, err := tr.Search(spatial.Rect{Lo: spatial.Point{0}, Hi: spatial.Point{1}}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestTreeDeleteAndMerge(t *testing.T) {
	tr, rs := buildTree(t, 2, 10, 200, 5)
	leavesBefore := tr.NumLeaves()
	for _, r := range rs {
		ok, err := tr.Delete(r.Key, r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%v) did not find the record", r.Key)
		}
	}
	if tr.Size() != 0 {
		t.Errorf("Size after deleting all = %d", tr.Size())
	}
	if got := tr.NumLeaves(); got >= leavesBefore {
		t.Errorf("no merges happened: %d leaves before, %d after", leavesBefore, got)
	}
	// Deleting an absent record reports false.
	ok, err := tr.Delete(spatial.Point{0.123, 0.456}, "")
	if err != nil || ok {
		t.Errorf("Delete(absent) = %v, %v", ok, err)
	}
	if _, err := tr.Delete(spatial.Point{0.5}, ""); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestTreeInsertRejectsWrongDim(t *testing.T) {
	tr, err := NewTree(2, 10, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(spatial.Record{Key: spatial.Point{0.5}}); err == nil {
		t.Error("wrong-dim insert accepted")
	}
}

func TestTreeDepthCapOnDuplicates(t *testing.T) {
	tr, err := NewTree(2, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 20 identical points cannot be separated; the depth cap must stop the
	// splitting recursion and keep all records.
	for i := 0; i < 20; i++ {
		if err := tr.Insert(spatial.Record{Key: spatial.Point{0.3, 0.3}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Size() != 20 {
		t.Errorf("Size = %d, want 20", tr.Size())
	}
	total := 0
	for _, c := range tr.Leaves() {
		total += c.Load()
	}
	if total != 20 {
		t.Errorf("leaves hold %d records, want 20", total)
	}
}
