package core

import (
	"errors"
	"fmt"
	"math/rand"
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
func cached(c *leafCache) []string {
	var out []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(bitlabel.Label).String())
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
	c.invalidate(b) // not cached: a no-op
	if got, want := strings.Join(cached(c), " "), "00111 00100"; got != want {
		t.Fatalf("after invalidate the LRU holds %q, want %q", got, want)
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

// checkTally recounts the cache from its live leaves: every proper prefix of
// a cached leaf carries exactly the count and summed length of the cached
// leaves below it, no other label is held, and no cached leaf is a prefix of
// another.
func checkTally(c *leafCache) error {
	want := make(map[uint64]cacheNode)
	var leaves []bitlabel.Label
	for el := c.lru.Front(); el != nil; el = el.Next() {
		leaf := el.Value.(bitlabel.Label)
		leaves = append(leaves, leaf)
		if n := c.nodes[leaf.Bits()]; n.el != el || n.leaves != 0 {
			return fmt.Errorf("cached leaf %v is held as %+v", leaf, n)
		}
		for l := c.root; l < leaf.Len(); l++ {
			n := want[leaf.Prefix(l).Bits()]
			n.leaves++
			n.depth += int32(leaf.Len())
			want[leaf.Prefix(l).Bits()] = n
		}
	}
	for _, a := range leaves {
		for _, b := range leaves {
			if a != b && a.IsPrefixOf(b) {
				return fmt.Errorf("cached leaf %v is a prefix of cached leaf %v", a, b)
			}
		}
	}
	if len(c.nodes) != len(want)+len(leaves) {
		return fmt.Errorf("the cache holds %d labels, its %d leaves account for %d", len(c.nodes), len(leaves), len(want)+len(leaves))
	}
	for k, w := range want {
		if got := c.nodes[k]; got.leaves != w.leaves || got.depth != w.depth || got.el != nil {
			return fmt.Errorf("label bits %b tallied %d leaves of total length %d, recount says %d and %d", k, got.leaves, got.depth, w.leaves, w.depth)
		}
	}
	return nil
}

// bruteView answers view by comparing path with every cached leaf.
func bruteView(c *leafCache, path bitlabel.Label) view {
	var v view
	var sum, n int
	for el := c.lru.Front(); el != nil; el = el.Next() {
		leaf := el.Value.(bitlabel.Label)
		if leaf.IsPrefixOf(path) {
			return view{leaf: leaf, hit: true}
		}
		switch cp := leaf.CommonPrefixLen(path); {
		case cp > v.bound:
			v.bound, sum, n = cp, leaf.Len(), 1
		case cp == v.bound:
			sum += leaf.Len()
			n++
		}
	}
	if n > 0 {
		v.guess = (sum + n/2) / n
	}
	return v
}

// TestLeafCacheTallyProperty: after every step of random add, invalidate and
// view sequences over a small cache (so evictions are frequent), the tally
// equals a recount from the live leaves and every view equals the brute-force
// answer; once every leaf is invalidated nothing is held.
func TestLeafCacheTallyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	randomLabel := func(maxBits int) bitlabel.Label {
		n := rng.Intn(maxBits + 1)
		return bitlabel.Root(2).Concat(bitlabel.New(rng.Uint64(), n))
	}
	for round := 0; round < 20; round++ {
		c := newLeafCache(1+rng.Intn(12), 2)
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				c.add(randomLabel(8))
			case r < 7:
				c.invalidate(randomLabel(8))
			case r < 8 && c.lru.Len() > 0:
				c.invalidate(c.lru.Back().Value.(bitlabel.Label))
			default:
				path := randomLabel(28)
				want := bruteView(c, path)
				if got := c.view(path); got != want {
					t.Fatalf("round %d step %d: view(%v) = %+v, brute force says %+v", round, step, path, got, want)
				}
			}
			if err := checkTally(c); err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
		}
		for c.lru.Len() > 0 {
			c.invalidate(c.lru.Front().Value.(bitlabel.Label))
		}
		if len(c.nodes) != 0 {
			t.Fatalf("round %d: the empty cache still holds %d labels", round, len(c.nodes))
		}
	}
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
		if _, err := a.search(p, path, a.cacheView(path), a.getProbe(path, new(Bucket)), &LookupTrace{}, 0); errors.Is(err, ErrNotFound) {
			return a, b, p
		}
	}
	t.Fatal("every stale bound built led the search to the merged leaf anyway")
	return nil, nil, nil
}

func buildStaleBound(t *testing.T, rng *rand.Rand) (a, b *Index, p spatial.Point) {
	t.Helper()
	shared := dht.MustNewLocal(4)
	tuning := index.Tuning{Capacity: 8, MergeThreshold: 4, Sleep: dht.NoSleep}
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
