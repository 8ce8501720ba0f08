package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
)

// opLog names every operation that reaches the substrate, in order. It has
// none of the optional capabilities, so a batch shows as the single calls it
// decomposes into.
type opLog struct {
	inner dht.DHT
	mu    sync.Mutex
	ops   []string
}

func (l *opLog) note(op string) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// since runs fn and returns the operations it issued.
func (l *opLog) since(fn func()) []string {
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
	fn()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

func (l *opLog) Put(k dht.Key, v any) error             { l.note("put"); return l.inner.Put(k, v) }
func (l *opLog) Get(k dht.Key) (any, bool, error)       { l.note("get"); return l.inner.Get(k) }
func (l *opLog) Remove(k dht.Key) error                 { l.note("remove"); return l.inner.Remove(k) }
func (l *opLog) Apply(k dht.Key, f dht.ApplyFunc) error { l.note("apply"); return l.inner.Apply(k, f) }
func (l *opLog) Owner(k dht.Key) (string, error)        { return l.inner.Owner(k) }

// cachedIndex is a θsplit-8 index with a leaf cache over inner, loaded with n
// random records so it holds a few dozen leaves.
func cachedIndex(t *testing.T, inner dht.DHT, n int) *Index {
	t.Helper()
	ix, err := New(inner, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: 64, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		rec := spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// roomyLeaf looks up leaves until it finds one below the root that can take a
// record without splitting and holds at least θmerge of them, and returns it
// (now cached) with a key inside its cell.
func roomyLeaf(t *testing.T, ix *Index) (Bucket, spatial.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		b, err := ix.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if load := b.Load(); load >= ix.opts.MergeThreshold && load < ix.opts.Capacity-1 && b.Label != bitlabel.Root(2) {
			return b, p
		}
	}
	t.Fatal("no leaf with room")
	return Bucket{}, nil
}

// TestCachedLeafGoesStraightToApply: with the covering leaf cached, an insert
// and a delete are the Apply alone — the owner checks that the stored leaf
// covers the record, so nothing verifies the entry first — and a delete that
// leaves θmerge records behind does not probe the sibling it could not merge
// with anyway.
func TestCachedLeafGoesStraightToApply(t *testing.T) {
	log := &opLog{inner: dht.MustNewLocal(4)}
	ix := cachedIndex(t, log, 200)
	leaf, p := roomyLeaf(t, ix)
	rec := spatial.Record{Key: p, Data: "direct"}

	before := ix.Stats()
	if ops := log.since(func() {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}); !slices.Equal(ops, []string{"apply"}) {
		t.Errorf("insert into cached leaf %v issued %v, want one apply", leaf.Label, ops)
	}
	if ops := log.since(func() {
		if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	}); !slices.Equal(ops, []string{"apply"}) {
		t.Errorf("delete from cached leaf %v (load %d ≥ θmerge) issued %v, want one apply", leaf.Label, leaf.Load(), ops)
	}
	d := ix.Stats().Sub(before)
	if d.DHTLookups != 2 || d.CacheHits != 2 || d.CacheStale != 0 {
		t.Errorf("lookups/hits/stale = %d/%d/%d, want 2/2/0", d.DHTLookups, d.CacheHits, d.CacheStale)
	}
	if found, err := ix.Exact(rec.Key); err != nil || len(found) != 0 {
		t.Errorf("deleted record still found: %v (%v)", found, err)
	}

	// A delete of something the leaf does not hold is settled by the stored
	// leaf that covers the key: no second pass through a lookup.
	if ops := log.since(func() {
		if ok, err := ix.Delete(p, "never inserted"); err != nil || ok {
			t.Fatalf("Delete of an absent record = %v, %v", ok, err)
		}
	}); !slices.Equal(ops, []string{"apply"}) {
		t.Errorf("delete of an absent record issued %v, want one apply", ops)
	}
}

// TestUncachedDeleteAtThetaMergeSkipsSiblingProbe: without a cache the same
// delete is the lookup's probes and the apply — the sibling probe is gone
// here too, and a delete that does drop the leaf below θmerge still makes it.
func TestUncachedDeleteAtThetaMergeSkipsSiblingProbe(t *testing.T) {
	log := &opLog{inner: dht.MustNewLocal(4)}
	ix, err := New(log, index.Tuning{Capacity: 8, MergeThreshold: 4, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := ix.Insert(spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	leaf, _ := roomyLeaf(t, ix)
	for load := leaf.Load(); load > 0; load-- {
		victim := leaf.RecordAt(load - 1)
		var probes LookupTrace
		if _, err := ix.lookup(victim.Key, &probes, 0); err != nil {
			t.Fatal(err)
		}
		ops := log.since(func() {
			if ok, err := ix.Delete(victim.Key, victim.Data); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
		})
		gets := 0
		for _, op := range ops {
			if op == "get" {
				gets++
			}
		}
		switch left := load - 1; {
		case left >= ix.opts.MergeThreshold:
			if gets != probes.Probes || len(ops) != gets+1 || ops[len(ops)-1] != "apply" {
				t.Errorf("delete leaving %d ≥ θmerge issued %v, want the lookup's %d gets and one apply", left, ops, probes.Probes)
			}
		case left == ix.opts.MergeThreshold-1:
			if gets <= probes.Probes {
				t.Errorf("delete leaving %d < θmerge issued %v: the sibling was not probed", left, ops)
			}
			return // a merge may have moved the leaf; the cascade tests take it from here
		}
	}
}

// TestCachedLeafSplitByAnotherClient is the write-as-probe contract with two
// clients. Client a caches leaf λ; client b's inserts split it, so fmd(λ) now
// holds the part of λ that stayed. An insert or delete a sends under λ's stale
// label into that part lands in the one op, as a hit. One into a piece that
// moved is declined with the stayed part's label, which the search takes as
// its first §5 probe: it goes on exactly as a lookup whose first Get read that
// bucket, every probe is an op, and no Get re-reads the key. Every DHT
// operation is a probe (DHTLookups counts them), and the tree holds its
// invariants after every step.
func TestCachedLeafSplitByAnotherClient(t *testing.T) {
	shared := dht.MustNewLocal(4)
	log := &opLog{inner: shared}
	a := cachedIndex(t, log, 200)
	leaf, _ := roomyLeaf(t, a)
	b, err := New(shared, index.Tuning{Capacity: 8, MergeThreshold: 4, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	invariants := func(step string) {
		t.Helper()
		if err := CheckInvariants(b); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	region, err := spatial.RegionOf(leaf.Label, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; b.Stats().Splits == 0; i++ {
		q := spatial.Point{
			region.Lo[0] + rng.Float64()*(region.Hi[0]-region.Lo[0]),
			region.Lo[1] + rng.Float64()*(region.Hi[1]-region.Lo[1]),
		}
		if err := b.Insert(spatial.Record{Key: q, Data: fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatal(err)
		}
		invariants(fmt.Sprintf("b's insert %d", i))
	}
	stayed := storedAt(t, shared, leaf.Key(2)).(Bucket).Label
	if stayed == leaf.Label || !leaf.Label.IsPrefixOf(stayed) {
		t.Fatalf("after b's split fmd(%v) holds %v, want a part of it", leaf.Label, stayed)
	}
	middle := func(l bitlabel.Label) spatial.Point {
		r, err := spatial.RegionOf(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		return spatial.Point{(r.Lo[0] + r.Hi[0]) / 2, (r.Lo[1] + r.Hi[1]) / 2}
	}
	// The sibling of the part that stayed lies inside λ and moved.
	home, away := spatial.Record{Key: middle(stayed), Data: "stayed"}, spatial.Record{Key: middle(stayed.Sibling()), Data: "moved"}

	// write runs op with λ alone cached for the key (as a's cache held it
	// before b's split) and returns the operations it sent and the counters
	// it moved.
	write := func(step string, key spatial.Point, op func() error) ([]string, metrics.Snapshot) {
		t.Helper()
		path, err := a.pathLabel(key)
		if err != nil {
			t.Fatal(err)
		}
		for v := a.cacheView(path); v.hit; v = a.cacheView(path) {
			a.invalidateLeaf(v.leaf)
		}
		a.cacheLeaf(leaf.Label)
		before := a.Stats()
		ops := log.since(func() {
			if err := op(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		})
		invariants(step)
		return ops, a.Stats().Sub(before)
	}
	// probesOnly holds an insert to what its search sent: ops, each counted.
	probesOnly := func(step string, ops []string, d metrics.Snapshot) {
		t.Helper()
		if int64(len(ops)) != d.DHTLookups || slices.Contains(ops, "get") {
			t.Errorf("%s sent %v, counted as %d DHT lookups; want every operation an op, each counted", step, ops, d.DHTLookups)
		}
	}
	once := func(step string, key spatial.Point, want int) {
		t.Helper()
		if found, err := a.Exact(key); err != nil || len(found) != want {
			t.Fatalf("after %s the record is found %d times (%v), want %d", step, len(found), err, want)
		}
	}

	// Into the part that stayed: the hit's op lands.
	ops, d := write("insert into the part that stayed", home.Key, func() error { return a.Insert(home) })
	probesOnly("insert into the part that stayed", ops, d)
	if len(ops) != 1 || d.CacheHits != 1 || d.CacheStale != 0 {
		t.Errorf("insert into the part that stayed under λ's label: ops %v, hits/stale %d/%d; want one op, a hit", ops, d.CacheHits, d.CacheStale)
	}
	once("the insert into the part that stayed", home.Key, 1)

	// Into a piece that moved: declined with the stayed part's label, then the
	// §5 search a lookup seeded with λ makes — probe for probe.
	reference, err := New(shared, index.Tuning{Capacity: 8, MergeThreshold: 4, CacheSize: 4, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	reference.cacheLeaf(leaf.Label)
	var lt LookupTrace
	if _, err := reference.lookup(away.Key, &lt, 0); err != nil {
		t.Fatal(err)
	}
	if reference.Stats().CacheStale != 1 || lt.Probes < 2 {
		t.Fatalf("the reference lookup under λ: %d probes, %d stale; want λ's stale probe and the search after it", lt.Probes, reference.Stats().CacheStale)
	}
	ops, d = write("insert into a piece that moved", away.Key, func() error { return a.Insert(away) })
	probesOnly("insert into a piece that moved", ops, d)
	if len(ops) != lt.Probes || d.CacheStale != 1 || d.CacheHits != 0 {
		t.Errorf("insert into a moved piece under λ's label: ops %v, stale/hits %d/%d; want the reference lookup's %d probes as ops, one stale", ops, d.CacheStale, d.CacheHits, lt.Probes)
	}
	once("the insert into a piece that moved", away.Key, 1)

	// The deletes take the same two ways; one that empties its leaf goes on to
	// the merge cascade, which reads the sibling.
	ops, d = write("delete from the part that stayed", home.Key, func() error {
		if ok, err := a.Delete(home.Key, home.Data); err != nil || !ok {
			return fmt.Errorf("Delete = %v, %v", ok, err)
		}
		return nil
	})
	if ops[0] != "apply" || d.CacheHits != 1 || d.CacheStale != 0 {
		t.Errorf("delete from the part that stayed under λ's label: ops %v, hits/stale %d/%d; want the hit's op first", ops, d.CacheHits, d.CacheStale)
	}
	once("the delete from the part that stayed", home.Key, 0)
	_, d = write("delete from a piece that moved", away.Key, func() error {
		if ok, err := a.Delete(away.Key, away.Data); err != nil || !ok {
			return fmt.Errorf("Delete = %v, %v", ok, err)
		}
		return nil
	})
	if d.CacheStale != 1 {
		t.Errorf("delete from a moved piece under λ's label counted %d stale entries, want 1", d.CacheStale)
	}
	once("the delete from a piece that moved", away.Key, 0)
}

// TestRerunCachedLeaf: the direct apply under a substrate that runs the
// transform twice. The discarded run is shown a key with no bucket (Gone);
// the stored run accepts. Only the stored verdict may get out — a sticky Gone
// would send the record through the lookup and insert it a second time, and
// would make Delete look for the record elsewhere and report it missing.
func TestRerunCachedLeaf(t *testing.T) {
	rr := dhttest.NewFlaky(dht.MustNewLocal(4))
	ix := cachedIndex(t, rr, 200)
	leaf, p := roomyLeaf(t, ix)
	key := leaf.Key(2)
	rec := spatial.Record{Key: p, Data: "rerun"}

	direct := func(what string, op func()) {
		t.Helper()
		before := ix.Stats()
		rr.RerunNext(key, nil, false)
		op()
		if d := ix.Stats().Sub(before); d.CacheStale != 0 || d.CacheHits != 1 || d.DHTLookups != 1 {
			t.Errorf("%s: stale/hits/lookups = %d/%d/%d, want 0/1/1: a discarded run's verdict got out", what, d.CacheStale, d.CacheHits, d.DHTLookups)
		}
	}
	direct("insert", func() {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	})
	if found, err := ix.Exact(p); err != nil || len(found) != 1 {
		t.Fatalf("record found %d times after one insert (%v)", len(found), err)
	}
	direct("delete", func() {
		if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	})

	// The other way round: the discarded run still saw the leaf, the stored
	// run finds it split. Its verdict alone decides: it lands in the part
	// that stayed, or is Gone and the search goes on to the record's leaf.
	holding := storedAt(t, rr, key)
	region, err := spatial.RegionOf(leaf.Label, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(rr.Inner(), index.Tuning{Capacity: 8, MergeThreshold: 4, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; other.Stats().Splits == 0; i++ {
		q := spatial.Point{
			region.Lo[0] + rng.Float64()*(region.Hi[0]-region.Lo[0]),
			region.Lo[1] + rng.Float64()*(region.Hi[1]-region.Lo[1]),
		}
		if err := other.Insert(spatial.Record{Key: q, Data: fmt.Sprintf("other%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	rr.RerunNext(key, holding, true)
	if err := ix.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if found, err := ix.Exact(p); err != nil || len(found) != 1 {
		t.Fatalf("record found %d times after an insert whose guess went stale mid-apply (%v)", len(found), err)
	}
}
