package pht

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

func newIndex(t *testing.T, opts index.Tuning) (*Index, *dht.Local) {
	t.Helper()
	d := dht.MustNewLocal(16)
	ix, err := New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, d
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
		{Dims: 2, Capacity: 10, MergeThreshold: 10},
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
	ix, _ := newIndex(t, index.Tuning{})
	o := ix.Tuning()
	if o.Dims != 2 || o.MaxDepth != 28 || o.Capacity != 100 || o.MergeThreshold != 50 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestInsertLookup(t *testing.T) {
	ix, _ := newIndex(t, index.Tuning{Capacity: 4, MergeThreshold: 2})
	rng := rand.New(rand.NewSource(1))
	points := randomPoints(rng, 2, 200)
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
	if recs, err := ix.Lookup(spatial.Point{0.111, 0.999}); err != nil || len(recs) != 0 {
		t.Errorf("Lookup(absent) = %v, %v", recs, err)
	}
	if _, err := ix.Lookup(spatial.Point{0.5}); err == nil {
		t.Error("wrong-dim lookup accepted")
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{2, 2}}); err == nil {
		t.Error("out-of-cube insert accepted")
	}
}

// assertTrieInvariants checks PHT's structure: leaves form an antichain, a
// marker exists at every proper prefix of every leaf, markers hold no
// records, and leaves respect capacity (unless at max depth).
func assertTrieInvariants(t *testing.T, d *dht.Local, opts index.Tuning) (leafCount, total int) {
	t.Helper()
	leaves := map[bitlabel.Label]node{}
	markers := map[bitlabel.Label]bool{}
	err := d.Range(func(k dht.Key, v any) bool {
		n, ok := v.(node)
		if !ok {
			t.Fatalf("non-node value %T", v)
		}
		switch n.Kind {
		case kindLeaf:
			leaves[n.Label] = n
		case kindInternal:
			markers[n.Label] = true
			if len(n.Records) != 0 {
				t.Fatalf("marker %v holds %d records", n.Label, len(n.Records))
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for a := range leaves {
		for b := range leaves {
			if a != b && a.IsPrefixOf(b) {
				t.Fatalf("leaf %v is ancestor of leaf %v", a, b)
			}
		}
		cur := a
		for cur.Len() > 0 {
			cur = cur.Parent()
			if !markers[cur] {
				t.Fatalf("missing marker at %v (prefix of leaf %v)", cur, a)
			}
			if _, conflict := leaves[cur]; conflict {
				t.Fatalf("node %v is both leaf and marker ancestor", cur)
			}
		}
		n := leaves[a]
		if n.Load() > opts.Capacity && a.Len() < opts.MaxDepth {
			t.Fatalf("leaf %v overfull: %d", a, n.Load())
		}
		total += n.Load()
	}
	return len(leaves), total
}

func TestStructureAndRangeAgainstScan(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			opts := index.Tuning{Dims: m, Capacity: 12, MergeThreshold: 6, MaxDepth: 24}
			ix, d := newIndex(t, opts)
			rng := rand.New(rand.NewSource(int64(m)))
			points := randomPoints(rng, m, 700)
			var records []spatial.Record
			for i, p := range points {
				rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
				records = append(records, rec)
				if err := ix.Insert(rec); err != nil {
					t.Fatalf("Insert #%d: %v", i, err)
				}
			}
			_, total := assertTrieInvariants(t, d, ix.Tuning())
			if total != len(points) {
				t.Fatalf("trie holds %d records, want %d", total, len(points))
			}
			for trial := 0; trial < 60; trial++ {
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
					t.Fatalf("RangeQuery(%v) = %d, scan = %d", q, len(res.Records), want)
				}
				if res.Lookups < 1 || res.Rounds < 1 || res.Rounds > res.Lookups {
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

func TestDeleteAndMerge(t *testing.T) {
	opts := index.Tuning{Dims: 2, Capacity: 10, MergeThreshold: 5, MaxDepth: 24}
	ix, d := newIndex(t, opts)
	rng := rand.New(rand.NewSource(7))
	points := randomPoints(rng, 2, 400)
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	leavesBefore, _ := assertTrieInvariants(t, d, opts)
	for i, p := range points {
		ok, err := ix.Delete(p, fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatalf("Delete #%d: %v", i, err)
		}
		if !ok {
			t.Fatalf("Delete #%d found nothing", i)
		}
	}
	leavesAfter, total := assertTrieInvariants(t, d, opts)
	if total != 0 {
		t.Errorf("%d records remain after deleting all", total)
	}
	if leavesAfter >= leavesBefore {
		t.Errorf("no merges: %d leaves before, %d after", leavesBefore, leavesAfter)
	}
	if ok, err := ix.Delete(spatial.Point{0.42, 0.42}, ""); err != nil || ok {
		t.Errorf("Delete(absent) = %v, %v", ok, err)
	}
}

// TestSplitMovesEverything pins PHT's structural cost: one split moves all
// records (both children go to fresh keys), where m-LIGHT moves only half.
func TestSplitMovesEverything(t *testing.T) {
	cap := 10
	ix, _ := newIndex(t, index.Tuning{Capacity: cap, MergeThreshold: 5})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < cap; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Stats()
	if before.Splits != 0 {
		t.Fatalf("premature split: %+v", before)
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "trigger"}); err != nil {
		t.Fatal(err)
	}
	delta := ix.Stats().Sub(before)
	if delta.Splits < 1 {
		t.Fatalf("no split: %+v", delta)
	}
	// Moved = the inserted record + every record redistributed to the new
	// leaves (all cap+1 of them).
	if want := int64(1 + cap + 1); delta.RecordsMoved != want {
		t.Errorf("RecordsMoved delta = %d, want %d", delta.RecordsMoved, want)
	}
}

func TestBootstrapIdempotent(t *testing.T) {
	d := dht.MustNewLocal(2)
	ix1, err := New(d, index.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix1.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "a"}); err != nil {
		t.Fatal(err)
	}
	ix2, err := New(d, index.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ix2.Lookup(spatial.Point{0.5, 0.5})
	if err != nil || len(recs) != 1 {
		t.Fatalf("second client: %v, %v", recs, err)
	}
}

func TestRangeQueryValidation(t *testing.T) {
	ix, _ := newIndex(t, index.Tuning{})
	if _, err := ix.RangeQuery(spatial.Rect{Lo: spatial.Point{0.1}, Hi: spatial.Point{0.2}}); err == nil {
		t.Error("wrong-dim query accepted")
	}
	bad := spatial.Rect{Lo: spatial.Point{0.5, 0.5}, Hi: spatial.Point{0.1, 0.1}}
	if _, err := ix.RangeQuery(bad); err == nil {
		t.Error("inverted rect accepted")
	}
}
