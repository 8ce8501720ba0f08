package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// TestTilePlansTheRange: for any tree, any set of leaves a client knows and
// any rectangle whose LCA the known leaves prove internal, tile's pieces tile
// the rectangle, sit below the LCA with it as their base, and stop at the
// first label not known internal; when every leaf is known they are exactly
// the leaves the rectangle meets.
func TestTilePlansTheRange(t *testing.T) {
	const maxDepth = 9
	for _, m := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(41 + m)))
		for tree := 0; tree < 20; tree++ {
			leaves := randomLeaves(rng, m, maxDepth)
			all := rng.Intn(3) == 0
			internal := make(map[bitlabel.Label]bool)
			for _, leaf := range leaves {
				if all || rng.Intn(2) == 0 {
					for l := m + 1; l < leaf.Len(); l++ {
						internal[leaf.Prefix(l)] = true
					}
				}
			}
			known := func(l bitlabel.Label) bool { return internal[l] }
			for trial := 0; trial < 60; trial++ {
				q := randomRect(rng, m)
				lca, err := spatial.LCALabel(q, m, maxDepth)
				if err != nil {
					t.Fatal(err)
				}
				if !internal[lca] {
					continue
				}
				pieces := tile(lca, q, m, nil, known)
				checkTiling(t, "tile", m, q, 0, pieces)
				for _, p := range pieces {
					if p.Base != lca || p.Node.Len() <= lca.Len() || !lca.IsPrefixOf(p.Node) {
						t.Fatalf("tile: piece %v (base %v) is not below the LCA %v", p.Node, p.Base, lca)
					}
					if internal[p.Node] || !internal[p.Node.Parent()] {
						t.Fatalf("tile: piece %v is known internal, or its parent is not", p.Node)
					}
				}
				if !all {
					continue
				}
				want := make(map[bitlabel.Label]bool)
				for _, leaf := range leaves {
					if cell, err := spatial.RegionOf(leaf, m); err == nil && lca.IsPrefixOf(leaf) && cell.Overlaps(q) {
						want[leaf] = true
					}
				}
				if len(pieces) != len(want) {
					t.Fatalf("tile over a fully known tree: %d pieces, %d leaves meet %v", len(pieces), len(want), q)
				}
				for _, p := range pieces {
					if !want[p.Node] {
						t.Fatalf("tile over a fully known tree: piece %v is no leaf meeting %v", p.Node, q)
					}
				}
			}
		}
	}
}

// tileClients returns a writer b without a cache that has inserted n random
// records, a client a whose cache holds size(the number of b's leaves)
// leaves, and a reference c without a cache, all over one DHT.
func tileClients(t *testing.T, rng *rand.Rand, n int, size func(leaves int) int) (a, b, c *Index) {
	t.Helper()
	shared := dht.MustNewLocal(4)
	tuning := index.Tuning{Capacity: 8, MergeThreshold: 4}
	var err error
	if b, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}
	if c, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	buckets, err := b.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	tuning.CacheSize = size(len(buckets))
	if a, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}
	return a, b, c
}

// warm has ix read every leaf once, which leaves the whole tree in its cache.
func warm(t *testing.T, ix *Index) {
	t.Helper()
	if _, err := ix.RangeQuery(spatial.UnitCube(2).Rect()); err != nil {
		t.Fatal(err)
	}
}

// leavesMeeting counts the leaves of ix's tree whose cell meets q and, when
// given, the shape.
func leavesMeeting(t *testing.T, ix *Index, q spatial.Rect, shape spatial.Shape) int {
	t.Helper()
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, bk := range buckets {
		cell, err := spatial.RegionOf(bk.Label, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sub, ok := cell.Intersect(q); ok && (shape == nil || shape.IntersectsRect(sub)) {
			n++
		}
	}
	return n
}

// sameAnswer runs q through the cached client a and the uncached reference c
// and fails unless they return the same records, as multisets.
func sameAnswer(t *testing.T, what string, a, c *Index, query func(*Index) (*QueryResult, error)) *QueryResult {
	t.Helper()
	got, err := query(a)
	if err != nil {
		t.Fatalf("%s: cached client: %v", what, err)
	}
	want, err := query(c)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !sameRecordSet(got.Records, want.Records) {
		t.Fatalf("%s: cached client returned %d records, the reference %d, or different ones", what, len(got.Records), len(want.Records))
	}
	return got
}

// wholeTree sizes a cache that holds every leaf of the tree.
func wholeTree(int) int { return 4096 }

// TestTileWarmCacheIsOneRound: on an unchanged tree a warm cache plans every
// range, shape and lookahead query down to the leaves it meets — one round,
// one probe a leaf, the records an uncached client gets — and books the plan
// neither as a hit nor as a miss. It does so with a cache that holds the whole
// tree, and with one of a fifth of the tree's leaves, whose shape entries
// keep the rest of the tree's shape.
func TestTileWarmCacheIsOneRound(t *testing.T) {
	t.Run("cache=whole", func(t *testing.T) { warmIsOneRound(t, wholeTree) })
	t.Run("cache=leaves/5", func(t *testing.T) {
		warmIsOneRound(t, func(leaves int) int {
			size := (leaves + 4) / 5
			if leaves < 4*size || leaves > (1+shapeFactor)*size {
				t.Fatalf("a cache of %d for %d leaves", size, leaves)
			}
			return size
		})
	})
}

func warmIsOneRound(t *testing.T, size func(leaves int) int) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	a, b, c := tileClients(t, rng, 400, size)
	warm(t, a)
	for i := 0; i < 100; i++ {
		q := randomRect(rng, 2)
		before := a.Stats()
		res := sameAnswer(t, "range", a, c, func(ix *Index) (*QueryResult, error) { return ix.RangeQuery(q) })
		if want := leavesMeeting(t, b, q, nil); res.Rounds != 1 || res.Lookups != want {
			t.Fatalf("warm range %v: %d rounds, %d lookups; want 1 round, one lookup for each of the %d leaves it meets", q, res.Rounds, res.Lookups, want)
		}
		if d := a.Stats().Sub(before); d.CacheHits != 0 || d.CacheMisses != 0 || d.CacheStale != 0 {
			t.Fatalf("a tiled range booked %d hits, %d misses, %d stale; want none", d.CacheHits, d.CacheMisses, d.CacheStale)
		}
		res = sameAnswer(t, "lookahead 4", a, c, func(ix *Index) (*QueryResult, error) { return ix.RangeQueryParallel(q, 4) })
		if want := leavesMeeting(t, b, q, nil); res.Rounds != 1 || res.Lookups != want {
			t.Fatalf("warm range %v at h=4: %d rounds, %d lookups; want 1 and %d", q, res.Rounds, res.Lookups, want)
		}

		circle := spatial.Circle{Center: spatial.Point{rng.Float64(), rng.Float64()}, Radius: 0.05 + 0.3*rng.Float64()}
		res = sameAnswer(t, "shape", a, c, func(ix *Index) (*QueryResult, error) { return ix.ShapeQuery(circle) })
		bound := circle.BoundingBox()
		if want := leavesMeeting(t, b, bound, circle); res.Rounds != 1 || res.Lookups != want {
			t.Fatalf("warm shape %v: %d rounds, %d lookups; want 1 round and the %d leaves the circle meets (%d meet its box)",
				circle, res.Rounds, res.Lookups, want, leavesMeeting(t, b, bound, nil))
		}
	}
}

// TestTileStaleCache: another client splits leaves a cached client's plan
// names, merges labels the plan descends through, and finally merges a leaf
// above the LCA of the queries asked; after every step each range the cached
// client answers is the uncached reference's answer. Four trees between them
// take every recovery a stale plan has: the split leaf's corner leaf
// expanded, a probe below a leaf answered by that leaf, a cover candidate,
// and the sequential fallback.
func TestTileStaleCache(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	for i := int64(0); i < 4; i++ {
		t.Run(fmt.Sprint("seed=", seed+i), func(t *testing.T) { staleTiles(t, rand.New(rand.NewSource(seed+i))) })
	}
}

func staleTiles(t *testing.T, rng *rand.Rand) {
	a, b, c := tileClients(t, rng, 400, wholeTree)
	warm(t, a)

	cell := func(l bitlabel.Label) spatial.Region {
		g, err := spatial.RegionOf(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	middle := func(l bitlabel.Label) spatial.Rect { return middleOf(t, l, 2) }
	check := func(step string, focus bitlabel.Label) {
		t.Helper()
		if err := CheckInvariants(b); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		queries := []spatial.Rect{middle(focus), cell(focus).Rect(), middle(focus.Parent())}
		for i := 0; i < 20; i++ {
			queries = append(queries, randomRect(rng, 2))
		}
		for i, q := range queries {
			what := fmt.Sprintf("%s, query %d %v", step, i, q)
			sameAnswer(t, what, a, c, func(ix *Index) (*QueryResult, error) { return ix.RangeQuery(q) })
			sameAnswer(t, what+" at h=4", a, c, func(ix *Index) (*QueryResult, error) { return ix.RangeQueryParallel(q, 4) })
		}
		warm(t, a)
	}
	// collapse has b delete every record under l, which merges l's subtree
	// into one leaf at l or above it, and then insert three records into
	// into, inside l's cell: too few to split that leaf again, and where the
	// first query of the next check meets them. That query is the one a's
	// stale plan sends to the merged leaf; what a reads on the way repairs
	// its cache.
	collapse := func(l bitlabel.Label, into spatial.Rect) {
		t.Helper()
		buckets, err := b.Buckets()
		if err != nil {
			t.Fatal(err)
		}
		for _, bk := range buckets {
			if !l.IsPrefixOf(bk.Label) {
				continue
			}
			for _, rec := range bk.Records() {
				if ok, err := b.Delete(rec.Key, rec.Data); err != nil || !ok {
					t.Fatalf("b deletes %v: %v, %v", rec.Key, ok, err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			p := spatial.Point{into.Lo[0] + (into.Hi[0]-into.Lo[0])*rng.Float64(), into.Lo[1] + (into.Hi[1]-into.Lo[1])*rng.Float64()}
			if err := b.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("%v-%d", l, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// deepLeaf is a leaf a has cached at least three levels below the root.
	deepLeaf := func() bitlabel.Label {
		t.Helper()
		for i := 0; i < 1000; i++ {
			leaf, err := b.Lookup(spatial.Point{rng.Float64(), rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			if leaf.Label.Len() >= bitlabel.Root(2).Len()+3 {
				return leaf.Label
			}
		}
		t.Fatal("no leaf three levels below the root")
		return bitlabel.Label{}
	}

	// Split: b fills a leaf a has cached until it splits.
	leaf := deepLeaf()
	g := cell(leaf)
	for i := 0; i < 20; i++ {
		p := spatial.Point{g.Lo[0] + (g.Hi[0]-g.Lo[0])*rng.Float64(), g.Lo[1] + (g.Hi[1]-g.Lo[1])*rng.Float64()}
		if err := b.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("split-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if now, err := b.Lookup(spatial.Point{(g.Lo[0] + g.Hi[0]) / 2, (g.Lo[1] + g.Hi[1]) / 2}); err != nil || now.Label.Len() <= leaf.Len() {
		t.Fatalf("the cached leaf %v did not split (now %v, %v)", leaf, now.Label, err)
	}
	check("after a split under a cached leaf", leaf)

	// Merge: b collapses the parent of a cached leaf, which a's plan descends
	// through as internal.
	leaf = deepLeaf()
	collapse(leaf.Parent(), middle(leaf))
	check("after a merge above a cached leaf", leaf)

	// Lift: b collapses the parent of a label a holds internal and uses as its
	// LCA, so the leaf that now covers the LCA's cell lies above it.
	lca := deepLeaf().Parent()
	q := middle(lca)
	if got, err := spatial.LCALabel(q, 2, a.opts.MaxDepth); err != nil || got != lca {
		t.Fatalf("LCA of %v = %v, %v; want %v", q, got, err, lca)
	}
	if _, ok := a.cache.tile(lca, q, nil); !ok {
		t.Fatalf("a's cache knows nothing of %v", lca)
	}
	collapse(lca.Parent(), q)
	if now, err := b.Lookup(q.Lo); err != nil || now.Label.Len() >= lca.Len() || !now.Label.IsPrefixOf(lca) {
		t.Fatalf("after the merges %v is covered by %v (%v); want a leaf above the LCA %v", q.Lo, now.Label, err, lca)
	}
	check("after a merge lifted a leaf above the LCA", lca)
}

// TestTileTraceEvent: a tiled range records one tile event under its query
// span, carrying the number of pieces, and sends no LCA probe.
func TestTileTraceEvent(t *testing.T) {
	tc := trace.NewCollector()
	ix := newIndex(t, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: 4096, Trace: tc})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := ix.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, ix)
	q := spatial.Rect{Lo: spatial.Point{0.1, 0.2}, Hi: spatial.Point{0.6, 0.7}}
	tc.Reset()
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var query trace.Span
	var tiles []trace.Span
	for _, s := range tc.Spans() {
		switch {
		case s.Kind == trace.KindQuery:
			query = s
		case s.Kind == trace.KindCache && s.Name == "tile":
			tiles = append(tiles, s)
		case s.Kind == trace.KindDHTOp && s.Parent == query.ID:
			t.Fatalf("a tiled range sent a DHT op under its query span: %+v", s)
		}
	}
	if len(tiles) != 1 || tiles[0].Parent != query.ID {
		t.Fatalf("tile events %+v, want one under the query span %d", tiles, query.ID)
	}
	if a := tiles[0].Attrs; len(a) != 1 || a[0].Key != "pieces" || a[0].Value() != fmt.Sprint(res.Lookups) {
		t.Fatalf("tile event attrs %v, want pieces=%d", a, res.Lookups)
	}
}
