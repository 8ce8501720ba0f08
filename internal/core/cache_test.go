package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// cacheLabel is the 2-dimensional root "001" followed by bits.
func cacheLabel(bits string) bitlabel.Label { return bitlabel.MustParse("001" + bits) }

// cached lists the cache's leaves, most recent first.
func cached(c *leafCache) []string { return labelStrings(listed(c, leafList)) }

// listed returns the labels of the list headed by cells[head] in list order:
// the cached leaves most recent first, the shape entries oldest first.
func listed(c *leafCache, head int32) []bitlabel.Label {
	var out []bitlabel.Label
	for i := c.cells[head].next; i != head; i = c.cells[i].next {
		out = append(out, c.cells[i].label)
	}
	return out
}

func labelStrings(labels []bitlabel.Label) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l.String()
	}
	return out
}

func TestLeafCacheLRU(t *testing.T) {
	c := newLeafCache(3, 2)
	a, b, d := cacheLabel("00"), cacheLabel("01"), cacheLabel("10")
	for _, l := range []bitlabel.Label{a, b, d} {
		c.add(l)
	}
	if got, want := strings.Join(cached(c), " "), "00110 00101 00100"; got != want {
		t.Fatalf("LRU order %q, want %q", got, want)
	}
	// A hit marks the leaf recently used, so the next add evicts b.
	if v := c.view(cacheLabel("001101")); !v.hit || v.leaf != a {
		t.Fatalf("view under %v = %+v, want a hit on it", a, v)
	}
	c.add(cacheLabel("11"))
	if got, want := strings.Join(cached(c), " "), "00111 00100 00110"; got != want {
		t.Fatalf("after an add over capacity the LRU holds %q, want %q", got, want)
	}
	c.invalidate(d)
	c.invalidate(b) // a shape entry now: dropped, the LRU is unchanged
	if got, want := strings.Join(cached(c), " "), "00111 00100"; got != want {
		t.Fatalf("after invalidate the LRU holds %q, want %q", got, want)
	}
	if shapes := listed(c, shapeList); len(shapes) != 0 {
		t.Fatalf("after invalidating the evicted leaf the shape entries are %v, want none", shapes)
	}
}

// TestLeafCacheAntichain: a leaf read now contradicts a cached label above or
// below it, which is dropped.
func TestLeafCacheAntichain(t *testing.T) {
	c := newLeafCache(8, 2)
	c.add(cacheLabel("000"))
	c.add(cacheLabel("0011"))
	c.add(cacheLabel("1"))
	c.add(cacheLabel("00")) // merged: both cached leaves below it are gone
	if got, want := strings.Join(cached(c), " "), "00100 0011"; got != want {
		t.Fatalf("after adding a merged parent the LRU holds %q, want %q", got, want)
	}
	c.add(cacheLabel("0010")) // split again: the parent is gone
	if got, want := strings.Join(cached(c), " "), "0010010 0011"; got != want {
		t.Fatalf("after adding a split child the LRU holds %q, want %q", got, want)
	}
	if err := checkTally(c); err != nil {
		t.Fatal(err)
	}
}

// TestLeafCacheView: a miss reports the deepest path prefix a cached leaf
// proves internal and the mean length of the cached leaves below it.
func TestLeafCacheView(t *testing.T) {
	c := newLeafCache(8, 2)
	c.add(cacheLabel("0000"))  // length 7
	c.add(cacheLabel("00011")) // length 8
	c.add(cacheLabel("11"))    // length 5
	path := cacheLabel("0010110011")
	if v := c.view(path); v.hit || v.bound != 5 || v.guess != 8 {
		t.Errorf("view(%v) = %+v, want a miss bounded at 5 (\"00100\") with guess 8 (mean of 7 and 8, rounded)", path, v)
	}
	if v := c.view(cacheLabel("01")); v.hit || v.bound != 4 || v.guess != 8 {
		t.Errorf("view(%v) = %+v, want bound 4 (\"0010\"), guess 8", cacheLabel("01"), v)
	}
	if v := c.view(cacheLabel("10")); v.hit || v.bound != 4 || v.guess != 5 {
		t.Errorf("view(%v) = %+v, want bound 4 (\"0011\"), guess 5", cacheLabel("10"), v)
	}
	if v := c.view(cacheLabel("0001101")); !v.hit || v.leaf != cacheLabel("00011") {
		t.Errorf("view inside a cached leaf = %+v, want the hit", v)
	}
	if v := newLeafCache(8, 2).view(path); v != (view{}) {
		t.Errorf("an empty cache's view = %+v, want the zero view", v)
	}
}

// checkTally recounts the cache from its own lists: every proper prefix of a
// cached leaf or shape entry carries exactly the count and summed length of
// the cached leaves and shape entries below it, each of them is held with its
// cell, no other label is held, no entry is a prefix of another, and the
// counts agree with the lists.
func checkTally(c *leafCache) error {
	leaves, shapes := listed(c, leafList), listed(c, shapeList)
	if len(leaves) != c.leaves || len(shapes) != c.shapes {
		return fmt.Errorf("the lists hold %d leaves and %d shape entries, the counts say %d and %d", len(leaves), len(shapes), c.leaves, c.shapes)
	}
	if len(leaves) > c.cap || len(shapes) > shapeFactor*c.cap {
		return fmt.Errorf("%d leaves and %d shape entries in a cache of %d", len(leaves), len(shapes), c.cap)
	}
	if len(c.cells) > 2+(1+shapeFactor)*c.cap+2 || len(c.free) > len(c.cells) {
		return fmt.Errorf("%d cells, %d free, in a cache of %d", len(c.cells), len(c.free), c.cap)
	}
	want := make(map[uint64]cacheNode)
	all := append(append([]bitlabel.Label(nil), leaves...), shapes...)
	for j, leaf := range all {
		n := c.nodes[leaf.Bits()]
		if isShape := j >= len(leaves); n.at == 0 || (n.at < 0) != isShape || n.leaves != 0 || c.cells[max(n.at, -n.at)].label != leaf {
			return fmt.Errorf("entry %v (shape %v) is held as %+v", leaf, isShape, n)
		}
		for l := c.root; l < leaf.Len(); l++ {
			n := want[leaf.Prefix(l).Bits()]
			n.leaves++
			n.depth += int32(leaf.Len())
			want[leaf.Prefix(l).Bits()] = n
		}
	}
	for _, a := range all {
		for _, b := range all {
			if a != b && a.IsPrefixOf(b) {
				return fmt.Errorf("entry %v is a prefix of entry %v", a, b)
			}
		}
	}
	if len(c.nodes) != len(want)+len(all) {
		return fmt.Errorf("the cache holds %d labels, its %d leaves and shape entries account for %d", len(c.nodes), len(all), len(want)+len(all))
	}
	for k, w := range want {
		if got := c.nodes[k]; got.leaves != w.leaves || got.depth != w.depth || got.at != 0 {
			return fmt.Errorf("label bits %b tallied %d entries of total length %d, recount says %d and %d", k, got.leaves, got.depth, w.leaves, w.depth)
		}
	}
	return nil
}

// cacheModel is the leaf cache as two plain slices, the reference the
// property test holds leafCache to: the cached leaves, most recent first,
// and the shape entries, oldest first.
type cacheModel struct {
	cap    int
	leaves []bitlabel.Label
	shapes []bitlabel.Label

	evictions, overflows int // leaves turned shape entries, shape entries dropped by the FIFO
}

func (m *cacheModel) add(leaf bitlabel.Label) {
	if i := slices.Index(m.leaves, leaf); i >= 0 {
		m.leaves = append([]bitlabel.Label{leaf}, slices.Delete(m.leaves, i, i+1)...)
		return
	}
	// A shape entry read again, and every entry above or below leaf, goes.
	unrelated := func(l bitlabel.Label) bool { return !l.IsPrefixOf(leaf) && !leaf.IsPrefixOf(l) }
	m.leaves = append([]bitlabel.Label{leaf}, keep(m.leaves, unrelated)...)
	m.shapes = keep(m.shapes, unrelated)
	for len(m.leaves) > m.cap {
		m.shapes = append(m.shapes, m.leaves[len(m.leaves)-1])
		m.leaves = m.leaves[:len(m.leaves)-1]
		m.evictions++
	}
	if over := len(m.shapes) - shapeFactor*m.cap; over > 0 {
		m.shapes = m.shapes[over:]
		m.overflows += over
	}
}

func (m *cacheModel) invalidate(leaf bitlabel.Label) {
	other := func(l bitlabel.Label) bool { return l != leaf }
	m.leaves, m.shapes = keep(m.leaves, other), keep(m.shapes, other)
}

func keep(labels []bitlabel.Label, ok func(bitlabel.Label) bool) []bitlabel.Label {
	var out []bitlabel.Label
	for _, l := range labels {
		if ok(l) {
			out = append(out, l)
		}
	}
	return out
}

// internal reports whether l is a proper prefix of a cached leaf or shape
// entry.
func (m *cacheModel) internal(l bitlabel.Label) bool {
	for _, e := range append(slices.Clone(m.leaves), m.shapes...) {
		if l.Len() < e.Len() && l.IsPrefixOf(e) {
			return true
		}
	}
	return false
}

// view answers leafCache.view by comparing path with every entry: a cached
// leaf covering path is the hit; otherwise the bound is the longest path
// prefix some entry lies strictly below — for a shape entry covering path,
// its parent — and the guess the mean length of the entries below it.
func (m *cacheModel) view(path bitlabel.Label, root int) view {
	for _, leaf := range m.leaves {
		if leaf.IsPrefixOf(path) {
			return view{leaf: leaf, hit: true}
		}
	}
	var v view
	var sum, n int
	for _, e := range append(slices.Clone(m.leaves), m.shapes...) {
		cp := e.CommonPrefixLen(path)
		if cp == e.Len() {
			cp-- // a shape entry covering path: only its prefixes are known internal
		}
		switch {
		case cp < root:
		case cp > v.bound:
			v.bound, sum, n = cp, e.Len(), 1
		case cp == v.bound:
			sum += e.Len()
			n++
		}
	}
	if n > 0 {
		v.guess = (sum + n/2) / n
	}
	return v
}

// tile answers leafCache.tile from the model: an entry on lca's path is the
// one piece, an lca not known internal is unknown, and otherwise the plan
// descends through the labels the model knows internal.
func (m *cacheModel) tile(lca bitlabel.Label, q spatial.Rect, dims int) ([]piece, bool) {
	for l := dims + 1; l <= lca.Len(); l++ {
		prefix := lca.Prefix(l)
		if slices.Contains(m.leaves, prefix) || slices.Contains(m.shapes, prefix) {
			return []piece{{Node: prefix, Base: prefix, Q: q}}, true
		}
	}
	if !m.internal(lca) {
		return nil, false
	}
	return tile(lca, q, dims, nil, m.internal), true
}

// middleOf is the rectangle spanning the middle half of l's cell, whose LCA
// is l itself.
func middleOf(t *testing.T, l bitlabel.Label, dims int) spatial.Rect {
	t.Helper()
	g, err := spatial.RegionOf(l, dims)
	if err != nil {
		t.Fatal(err)
	}
	q := spatial.Rect{Lo: make(spatial.Point, dims), Hi: make(spatial.Point, dims)}
	for d := range q.Lo {
		side := g.Hi[d] - g.Lo[d]
		q.Lo[d], q.Hi[d] = g.Lo[d]+side/4, g.Hi[d]-side/4
	}
	return q
}

// TestLeafCacheTallyProperty: random adds — reads of new leaves, of cached
// leaves and of shape entries, and reads that contradict entries above or
// below them — evictions, FIFO overflows and invalidations over a small
// cache, checked after every step against a reference model: the same
// leaves in the same LRU order and the same shape entries in the same FIFO
// order, a prefix's tally counting the cached leaves and the shape entries
// below it (a recount), and every view and every tile plan the model's. Once
// every entry is invalidated nothing is held.
func TestLeafCacheTallyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	randomLabel := func(maxBits int) bitlabel.Label {
		n := rng.Intn(maxBits + 1)
		return bitlabel.Root(2).Concat(bitlabel.New(rng.Uint64(), n))
	}
	pick := func(labels []bitlabel.Label) bitlabel.Label { return labels[rng.Intn(len(labels))] }
	var stats struct{ evictions, overflows, rereads, contradictions int }
	defer func() { t.Logf("%+v", stats) }()
	for round := 0; round < 40; round++ {
		c := newLeafCache(1+rng.Intn(6), 2)
		m := &cacheModel{cap: c.cap}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(14); {
			case r < 6:
				leaf := randomLabel(8)
				if m.internal(leaf) || slices.ContainsFunc(m.leaves, func(l bitlabel.Label) bool { return l != leaf && l.IsPrefixOf(leaf) }) ||
					slices.ContainsFunc(m.shapes, func(l bitlabel.Label) bool { return l != leaf && l.IsPrefixOf(leaf) }) {
					stats.contradictions++
				}
				c.add(leaf)
				m.add(leaf)
			case r < 7 && len(m.shapes) > 0:
				leaf := pick(m.shapes)
				stats.rereads++
				c.add(leaf)
				m.add(leaf)
			case r < 8 && len(m.leaves) > 0:
				leaf := pick(m.leaves)
				c.add(leaf)
				m.add(leaf)
			case r < 9:
				leaf := randomLabel(8)
				c.invalidate(leaf)
				m.invalidate(leaf)
			case r < 10 && len(m.shapes) > 0:
				leaf := pick(m.shapes)
				c.invalidate(leaf)
				m.invalidate(leaf)
			case r < 11 && len(m.leaves) > 0:
				leaf := pick(m.leaves)
				c.invalidate(leaf)
				m.invalidate(leaf)
			case r < 12:
				lca := randomLabel(9)
				q := middleOf(t, lca, 2)
				want, wantOK := m.tile(lca, q, 2)
				if got, ok := c.tile(lca, q, nil); ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d step %d: tile(%v) = %v, %v; the model plans %v, %v", round, step, lca, got, ok, want, wantOK)
				}
			default:
				path := randomLabel(28)
				want := m.view(path, c.root)
				if got := c.view(path); got != want {
					t.Fatalf("round %d step %d: view(%v) = %+v, the model says %+v", round, step, path, got, want)
				}
				if want.hit {
					m.add(want.leaf) // a hit is marked recently used
				}
			}
			if err := checkTally(c); err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
			if got, want := strings.Join(cached(c), " "), strings.Join(labelStrings(m.leaves), " "); got != want {
				t.Fatalf("round %d step %d: the LRU holds %q, the model %q", round, step, got, want)
			}
			if got, want := strings.Join(labelStrings(listed(c, shapeList)), " "), strings.Join(labelStrings(m.shapes), " "); got != want {
				t.Fatalf("round %d step %d: the shape entries are %q, the model's %q", round, step, got, want)
			}
		}
		stats.evictions += m.evictions
		stats.overflows += m.overflows
		for _, l := range append(slices.Clone(m.leaves), m.shapes...) {
			c.invalidate(l)
		}
		if len(c.nodes) != 0 || c.leaves != 0 || c.shapes != 0 {
			t.Fatalf("round %d: the empty cache still holds %d labels, %d leaves, %d shape entries", round, len(c.nodes), c.leaves, c.shapes)
		}
	}
	if stats.evictions == 0 || stats.overflows == 0 || stats.rereads == 0 || stats.contradictions == 0 {
		t.Fatalf("the walk missed a case: %+v", stats)
	}
}

// TestLeafCacheShapeMemoryBounded: 10,000 random reads of the leaves of a
// tree many times larger than the cache leave at most CacheSize leaves and
// shapeFactor·CacheSize shape entries, the FIFO full, CacheLen reporting the
// leaves alone, and nodes holding only those labels and their prefixes.
func TestLeafCacheShapeMemoryBounded(t *testing.T) {
	const size = 32
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	var tree []bitlabel.Label
	for len(tree) < 16*(1+shapeFactor)*size {
		tree = randomLeaves(rng, 2, 16)
	}
	ix := newIndex(t, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: size})
	c := ix.cache
	for i := 0; i < 10000; i++ {
		ix.cacheLeaf(tree[rng.Intn(len(tree))])
		if i%1000 == 999 {
			if err := checkTally(c); err != nil {
				t.Fatalf("after %d reads: %v", i+1, err)
			}
		}
	}
	if c.leaves != size || c.shapes != shapeFactor*size {
		t.Fatalf("%d leaves and %d shape entries after 10,000 reads of %d leaves; want %d and %d", c.leaves, c.shapes, len(tree), size, shapeFactor*size)
	}
	if got := ix.CacheLen(); got != size {
		t.Fatalf("CacheLen = %d, want the %d cached leaves", got, size)
	}
	if len(c.cells) > 2+(1+shapeFactor)*size+2 {
		t.Fatalf("%d cells for %d entries", len(c.cells), c.leaves+c.shapes)
	}
	t.Logf("%d leaves, %d shape entries, %d labels held over a tree of %d leaves", c.leaves, c.shapes, len(c.nodes), len(tree))
}

// staleBound builds the state a stale bound comes from: client a caches one
// leaf λ, then client b deletes every record under λ's parent until the
// merges make a prefix of that parent a leaf. It returns the two clients and
// a point under λ's parent that λ does not cover, so a's cache misses there
// with a bound at least as deep as the parent — deeper than the leaf that
// now covers the point. A bounded search may still find that leaf, when one
// of its probes happens to name the leaf's key; the state is built afresh
// until the bounded search misses.
func staleBound(t *testing.T) (a, b *Index, p spatial.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	for try := 0; try < 20; try++ {
		a, b, p := buildStaleBound(t, rng)
		path, err := a.pathLabel(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.search(p, path, a.cacheView(path), a.getProbe(p, path, new(Bucket)), &LookupTrace{}, 0); errors.Is(err, ErrNotFound) {
			return a, b, p
		}
	}
	t.Fatal("every stale bound built led the search to the merged leaf anyway")
	return nil, nil, nil
}

func buildStaleBound(t *testing.T, rng *rand.Rand) (a, b *Index, p spatial.Point) {
	t.Helper()
	shared := dht.MustNewLocal(4)
	tuning := index.Tuning{Capacity: 8, MergeThreshold: 4}
	b, err := New(shared, tuning)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := b.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	tuning.CacheSize = 64
	if a, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}

	// λ: the leaf of a random point, deep enough that its parent is below
	// the root.
	var leaf Bucket
	for leaf.Label.Len() < bitlabel.Root(2).Len()+3 {
		if leaf, err = a.Lookup(spatial.Point{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		a.invalidateLeaf(leaf.Label)
	}
	a.cacheLeaf(leaf.Label)
	parent := leaf.Label.Parent()
	other, err := spatial.RegionOf(leaf.Label.Sibling(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p = spatial.Point{(other.Lo[0] + other.Hi[0]) / 2, (other.Lo[1] + other.Hi[1]) / 2}
	path, err := a.pathLabel(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := a.cacheView(path); v.hit || v.bound < parent.Len() {
		t.Fatalf("a's view of %v is %+v; want a miss bounded at λ's parent %v or deeper", p, v, parent)
	}

	buckets, err := b.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range buckets {
		if !parent.IsPrefixOf(bk.Label) {
			continue
		}
		for _, rec := range bk.Records() {
			if ok, err := b.Delete(rec.Key, rec.Data); err != nil || !ok {
				t.Fatalf("b deletes %v: %v, %v", rec.Key, ok, err)
			}
			if err := CheckInvariants(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	now, err := b.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	if !now.Label.IsPrefixOf(parent) {
		t.Fatalf("after the deletes %v is covered by %v, not by λ's parent %v or a prefix of it", p, now.Label, parent)
	}
	return a, b, p
}

// TestStaleCacheBound: another client's merges turn a prefix a client's cache
// proves internal into a leaf. The bounded search misses that leaf; the
// client counts it stale, searches once more unbounded, answers correctly,
// and its cache drops the leaf below the merged one, so the next lookup there
// is a clean hit.
func TestStaleCacheBound(t *testing.T) {
	stale := func(t *testing.T, a *Index, op func()) {
		t.Helper()
		before := a.Stats()
		op()
		if d := a.Stats().Sub(before); d.CacheStale != 1 {
			t.Errorf("CacheStale = %d, want 1: one unbounded re-search", d.CacheStale)
		}
		if err := CheckInvariants(a); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("Lookup", func(t *testing.T) {
		a, b, p := staleBound(t)
		want, err := b.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		stale(t, a, func() {
			got, err := a.Lookup(p)
			if err != nil || got.Label != want.Label {
				t.Fatalf("a.Lookup(%v) = %v, %v; want %v", p, got.Label, err, want.Label)
			}
		})
		// The merged leaf is cached now and λ is gone: a is consistent again.
		before := a.Stats()
		if _, err := a.Lookup(p); err != nil {
			t.Fatal(err)
		}
		if d := a.Stats().Sub(before); d.CacheStale != 0 || d.CacheHits != 1 {
			t.Errorf("second lookup: stale/hits = %d/%d, want 0/1", d.CacheStale, d.CacheHits)
		}
	})

	t.Run("Insert", func(t *testing.T) {
		a, _, p := staleBound(t)
		stale(t, a, func() {
			if err := a.Insert(spatial.Record{Key: p, Data: "through a stale bound"}); err != nil {
				t.Fatal(err)
			}
		})
		if found, err := a.Exact(p); err != nil || len(found) != 1 {
			t.Fatalf("inserted record found %d times (%v)", len(found), err)
		}
	})

	t.Run("Delete", func(t *testing.T) {
		a, b, p := staleBound(t)
		if err := b.Insert(spatial.Record{Key: p, Data: "victim"}); err != nil {
			t.Fatal(err)
		}
		stale(t, a, func() {
			if ok, err := a.Delete(p, "victim"); err != nil || !ok {
				t.Fatalf("a.Delete through a stale bound = %v, %v; the record is there", ok, err)
			}
		})
		if found, err := b.Exact(p); err != nil || len(found) != 0 {
			t.Fatalf("deleted record found %d times (%v)", len(found), err)
		}
	})
}

// TestCacheBoundNeverServesAWrongLeaf: with a stale bound in the cache, every
// lookup still ends in the leaf an uncached client finds.
func TestCacheBoundNeverServesAWrongLeaf(t *testing.T) {
	a, b, _ := staleBound(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		q := spatial.Point{rng.Float64(), rng.Float64()}
		want, err := b.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := a.Lookup(q); err != nil || got.Label != want.Label {
			t.Fatalf("a.Lookup(%v) = %v, %v; the leaf is %v", q, got.Label, err, want.Label)
		}
	}
}

// shapeUnderMerge builds the state a stale shape entry comes from: a
// writer b without a cache inserts 300 records; client a, whose cache holds 4
// leaves, reads a leaf λ at least three levels deep and then four leaves
// outside λ's parent, which evict λ into a shape entry; then b deletes every
// record under λ's parent, so that the merges make a prefix of that parent a
// leaf, and inserts three records into λ's cell. It returns a, the uncached
// reference c, λ and the merged leaf.
func shapeUnderMerge(t *testing.T, rng *rand.Rand) (a, c *Index, lambda, merged bitlabel.Label) {
	t.Helper()
	shared := dht.MustNewLocal(4)
	tuning := index.Tuning{Capacity: 8, MergeThreshold: 4}
	b, err := New(shared, tuning)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := b.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	tuning.CacheSize = 4
	if a, err = New(shared, tuning); err != nil {
		t.Fatal(err)
	}
	buckets, err := b.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range buckets {
		if bk.Label.Len() >= bitlabel.Root(2).Len()+3 {
			lambda = bk.Label
			break
		}
	}
	if lambda.IsEmpty() {
		t.Fatal("no leaf three levels below the root")
	}
	parent := lambda.Parent()
	a.cacheLeaf(lambda)
	others := 0
	for _, bk := range buckets {
		if others < a.opts.CacheSize && !parent.IsPrefixOf(bk.Label) {
			a.cacheLeaf(bk.Label)
			others++
		}
	}
	if n := a.cache.nodes[lambda.Bits()]; n.at >= 0 {
		t.Fatalf("a holds λ %v as %+v, want a shape entry", lambda, n)
	}

	g, err := spatial.RegionOf(lambda, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range buckets {
		if !parent.IsPrefixOf(bk.Label) {
			continue
		}
		for _, rec := range bk.Records() {
			if ok, err := b.Delete(rec.Key, rec.Data); err != nil || !ok {
				t.Fatalf("b deletes %v: %v, %v", rec.Key, ok, err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		p := spatial.Point{g.Lo[0] + (g.Hi[0]-g.Lo[0])*rng.Float64(), g.Lo[1] + (g.Hi[1]-g.Lo[1])*rng.Float64()}
		if err := b.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("into-λ-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
	now, err := c.Lookup(spatial.Point{(g.Lo[0] + g.Hi[0]) / 2, (g.Lo[1] + g.Hi[1]) / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !now.Label.IsPrefixOf(parent) {
		t.Fatalf("after the deletes λ's cell is covered by %v, not by λ's parent %v or a prefix of it", now.Label, parent)
	}
	return a, c, lambda, now.Label
}

// TestShapeEntryMergedByAnotherClient: another client merges a subtree that
// a client remembers only as a shape entry. The client's next lookup, and in
// another run its next range, answers exactly what an uncached client
// answers, counts at most one stale entry, and reads the merged leaf, which
// drops every entry below it: the next lookup there is a clean hit.
func TestShapeEntryMergedByAnotherClient(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	gone := func(t *testing.T, a *Index, lambda, merged bitlabel.Label) {
		t.Helper()
		if n, held := a.cache.nodes[lambda.Bits()]; held && n.at != 0 {
			t.Fatalf("λ %v is still held as %+v after the merged leaf %v was read", lambda, n, merged)
		}
		for _, l := range append(listed(a.cache, leafList), listed(a.cache, shapeList)...) {
			if merged.IsPrefixOf(l) && l != merged {
				t.Fatalf("%v below the merged leaf %v is still held", l, merged)
			}
		}
		if err := checkTally(a.cache); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4; i++ {
		t.Run(fmt.Sprint("seed=", seed+i), func(t *testing.T) {
			t.Run("Lookup", func(t *testing.T) {
				a, c, lambda, merged := shapeUnderMerge(t, rand.New(rand.NewSource(seed+i)))
				g, err := spatial.RegionOf(lambda, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []spatial.Point{
					{(g.Lo[0] + g.Hi[0]) / 2, (g.Lo[1] + g.Hi[1]) / 2},
					{g.Lo[0] + (g.Hi[0]-g.Lo[0])/8, g.Lo[1] + (g.Hi[1]-g.Lo[1])/8},
				} {
					want, err := c.Lookup(p)
					if err != nil {
						t.Fatal(err)
					}
					before := a.Stats()
					got, err := a.Lookup(p)
					if err != nil || got.Label != want.Label || !sameRecordSet(got.Records(), want.Records()) {
						t.Fatalf("a.Lookup(%v) = %v, %v; the leaf is %v", p, got.Label, err, want.Label)
					}
					if d := a.Stats().Sub(before); d.CacheStale > 1 {
						t.Fatalf("a.Lookup(%v) counted %d stale entries, want at most 1", p, d.CacheStale)
					}
					gone(t, a, lambda, merged)
				}
				before := a.Stats()
				if _, err := a.Lookup(spatial.Point{g.Lo[0], g.Lo[1]}); err != nil {
					t.Fatal(err)
				}
				if d := a.Stats().Sub(before); d.CacheStale != 0 || d.CacheHits != 1 {
					t.Errorf("a lookup under the merged leaf after it was read: stale/hits = %d/%d, want 0/1", d.CacheStale, d.CacheHits)
				}
			})
			t.Run("Range", func(t *testing.T) {
				a, c, lambda, merged := shapeUnderMerge(t, rand.New(rand.NewSource(seed+i)))
				for _, q := range []spatial.Rect{middleOf(t, lambda.Parent(), 2), middleOf(t, lambda, 2)} {
					want, err := c.RangeQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					before := a.Stats()
					got, err := a.RangeQuery(q)
					if err != nil || !sameRecordSet(got.Records, want.Records) {
						t.Fatalf("a.RangeQuery(%v) = %d records, %v; the reference has %d", q, len(got.Records), err, len(want.Records))
					}
					if d := a.Stats().Sub(before); d.CacheStale > 1 {
						t.Fatalf("a.RangeQuery(%v) counted %d stale entries, want at most 1", q, d.CacheStale)
					}
					gone(t, a, lambda, merged)
				}
			})
		})
	}
}

// TestMissTraceCarriesBound: a traced lookup's cache miss says where its
// search started.
func TestMissTraceCarriesBound(t *testing.T) {
	tc := trace.NewCollector()
	ix := newIndex(t, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: 64, Trace: tc})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := ix.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	p := spatial.Point{rng.Float64(), rng.Float64()}
	path, err := ix.pathLabel(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := ix.cacheView(path); v.hit {
		ix.invalidateLeaf(v.leaf)
	}
	v := ix.cacheView(path)
	if v.hit || v.bound == 0 {
		t.Fatalf("view of %v = %+v, want a bounded miss", p, v)
	}
	tc.Reset()
	if _, err := ix.Lookup(p); err != nil {
		t.Fatal(err)
	}
	for _, s := range tc.Spans() {
		if s.Kind == trace.KindCache && s.Name == "miss" {
			if len(s.Attrs) != 1 || s.Attrs[0].Key != "bound" || s.Attrs[0].Value() != fmt.Sprint(v.bound) {
				t.Fatalf("miss event attrs %v, want bound=%d", s.Attrs, v.bound)
			}
			return
		}
	}
	t.Fatal("the lookup recorded no miss event")
}

// TestTracedWriteShowsItsProbes: a cached client's traced insert records its
// probes the way a traced lookup records its gets — one append span each under
// the binsearch span, every one but the last ended with the label its owner
// reported, the last with landed — and a delete's probes are remove spans.
func TestTracedWriteShowsItsProbes(t *testing.T) {
	tc := trace.NewCollector()
	ix := newIndex(t, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: 64, Trace: tc})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := ix.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	probes := func(what string, write func() error, name string) int {
		t.Helper()
		tc.Reset()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		var search trace.Span
		for _, s := range tc.Spans() {
			if s.Kind == trace.KindLookup && s.Name == "binsearch" {
				search = s
			}
		}
		// The search's probes; a delete's merge cascade reads siblings after
		// it, outside its span.
		var ops []trace.Span
		for _, s := range tc.Spans() {
			if s.Kind == trace.KindDHTOp && s.Parent == search.ID {
				ops = append(ops, s)
			}
		}
		if search.ID == 0 || len(ops) == 0 {
			t.Fatalf("%s recorded no binsearch span or no DHT op", what)
		}
		if want := fmt.Sprint(len(ops)); search.Attrs[0].Key != "probes" || search.Attrs[0].Value() != want {
			t.Fatalf("%s: binsearch attrs %v, want probes=%s", what, search.Attrs, want)
		}
		for i, s := range ops {
			if s.Name != name {
				t.Fatalf("%s: probe %d is a %q span, want %q", what, i+1, s.Name, name)
			}
			outcome := s.Attrs[len(s.Attrs)-1]
			if last := i == len(ops)-1; last && (outcome.Key != "landed" || outcome.Value() != "1") || !last && outcome.Key != "stored" {
				t.Fatalf("%s: probe %d of %d ends with %s=%s", what, i+1, len(ops), outcome.Key, outcome.Value())
			}
		}
		return len(ops)
	}
	for i := 0; i < 50; i++ {
		rec := spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: "traced"}
		path, err := ix.pathLabel(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if v := ix.cacheView(path); v.hit {
			ix.invalidateLeaf(v.leaf)
		}
		if probes("an insert", func() error { return ix.Insert(rec) }, "append") < 2 {
			continue
		}
		ix.invalidateLeaf(ix.cacheView(path).leaf)
		probes("a delete", func() error {
			if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
				return fmt.Errorf("Delete = %v, %v", ok, err)
			}
			return nil
		}, "remove")
		return
	}
	t.Fatal("no insert took more than one probe: the case tested nothing")
}
