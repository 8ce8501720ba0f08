package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/kdtree"
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

func clusteredPoints(rng *rand.Rand, m, n int) []spatial.Point {
	centers := [][]float64{{0.2, 0.7}, {0.8, 0.3}, {0.5, 0.5}}
	out := make([]spatial.Point, n)
	for i := range out {
		p := make(spatial.Point, m)
		c := centers[rng.Intn(len(centers))]
		for d := range p {
			base := 0.5
			if d < len(c) {
				base = c[d]
			}
			p[d] = clamp01(base + rng.NormFloat64()*0.05)
		}
		out[i] = p
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestOptionsValidation(t *testing.T) {
	d := dht.MustNewLocal(2)
	bad := []index.Tuning{
		{Dims: -1},
		{Dims: 2, MaxDepth: 80},
		{Dims: 2, Capacity: -5},
		{Dims: 2, Capacity: 10, MergeThreshold: 10},
		{Dims: 2, Strategy: SplitStrategy(99)},
		{Dims: 2, Strategy: SplitDataAware, Epsilon: -3},
	}
	for i, o := range bad {
		if _, err := New(d, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	// The depth bound is this scheme's own: a leaf label is m+1+D bits.
	for _, m := range []int{1, 2, 5} {
		fits := bitlabel.MaxLen - m - 1
		if _, err := New(dht.MustNewLocal(2), index.Tuning{Dims: m, MaxDepth: fits}); err != nil {
			t.Errorf("m=%d: MaxDepth %d (m+1+D = MaxLen) rejected: %v", m, fits, err)
		}
		if _, err := New(dht.MustNewLocal(2), index.Tuning{Dims: m, MaxDepth: fits + 1}); err == nil {
			t.Errorf("m=%d: MaxDepth %d (m+1+D > MaxLen) accepted", m, fits+1)
		}
	}
	ix := newIndex(t, index.Tuning{})
	o := ix.Tuning()
	if o.Dims != 2 || o.MaxDepth != 28 || o.Capacity != 100 || o.MergeThreshold != 50 ||
		o.Strategy != SplitThreshold || o.Epsilon != 70 {
		t.Errorf("defaults = %+v", o)
	}
	if SplitThreshold.String() != "threshold" || SplitDataAware.String() != "data-aware" {
		t.Error("strategy names wrong")
	}
	if !strings.Contains(SplitStrategy(42).String(), "42") {
		t.Error("unknown strategy String")
	}
}

func TestBootstrapIdempotent(t *testing.T) {
	d := dht.MustNewLocal(4)
	ix1, err := New(d, index.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix1.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "a"}); err != nil {
		t.Fatal(err)
	}
	// A second client attaching must not wipe the index.
	ix2, err := New(d, index.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ix2.Exact(spatial.Point{0.5, 0.5})
	if err != nil || len(recs) != 1 || recs[0].Data != "a" {
		t.Fatalf("second client sees %v, %v", recs, err)
	}
}

func TestInsertLookupExact(t *testing.T) {
	ix := newIndex(t, index.Tuning{Capacity: 4, MergeThreshold: 2})
	points := []spatial.Point{
		{0.1, 0.1}, {0.9, 0.9}, {0.4, 0.6}, {0.6, 0.4},
		{0.25, 0.75}, {0.75, 0.25}, {0.5, 0.5}, {0.123, 0.456},
	}
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
	}
	for i, p := range points {
		b, err := ix.Lookup(p)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", p, err)
		}
		g, err := spatial.RegionOf(b.Label, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Contains(p) {
			t.Fatalf("Lookup(%v) = %v whose region %v misses it", p, b.Label, g)
		}
		recs, err := ix.Exact(p)
		if err != nil || len(recs) != 1 || recs[0].Data != fmt.Sprintf("r%d", i) {
			t.Fatalf("Exact(%v) = %v, %v", p, recs, err)
		}
	}
	// Exact on an absent point returns nothing.
	recs, err := ix.Exact(spatial.Point{0.111, 0.222})
	if err != nil || len(recs) != 0 {
		t.Fatalf("Exact(absent) = %v, %v", recs, err)
	}
	if n, err := ix.Size(); err != nil || n != len(points) {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestInsertValidation(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.5}}); !errors.Is(err, ErrDimension) {
		t.Errorf("wrong-dim insert: %v", err)
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{1.5, 0.5}}); err == nil {
		t.Error("out-of-cube insert accepted")
	}
	if _, err := ix.Lookup(spatial.Point{0.5}); !errors.Is(err, ErrDimension) {
		t.Errorf("wrong-dim lookup: %v", err)
	}
}

// assertMatchesOracle compares the distributed index against the in-memory
// reference tree: identical leaf labels and identical record multisets per
// leaf.
func assertMatchesOracle(t *testing.T, ix *Index, oracle *kdtree.Tree) {
	t.Helper()
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	leaves := oracle.Leaves()
	if len(buckets) != len(leaves) {
		t.Fatalf("index has %d buckets, oracle has %d leaves", len(buckets), len(leaves))
	}
	byLabel := make(map[bitlabel.Label]Bucket, len(buckets))
	for _, b := range buckets {
		if _, dup := byLabel[b.Label]; dup {
			t.Fatalf("duplicate bucket label %v", b.Label)
		}
		byLabel[b.Label] = b
	}
	for _, leaf := range leaves {
		b, ok := byLabel[leaf.Label]
		if !ok {
			t.Fatalf("oracle leaf %v missing from index", leaf.Label)
		}
		if !sameRecordSet(b.Records(), leaf.Records) {
			t.Fatalf("leaf %v: index has %d records, oracle %d (or contents differ)",
				leaf.Label, b.Load(), len(leaf.Records))
		}
	}
}

func sameRecordSet(a, b []spatial.Record) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r spatial.Record) string {
		return fmt.Sprintf("%v|%s", r.Key, r.Data)
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = key(a[i])
		bs[i] = key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestThresholdAgainstOracle is the main integration property: for several
// dimensionalities and thresholds, progressive insertion into the
// distributed index produces exactly the leaves of the reference global
// kd-tree, and every lookup and range query matches the oracle.
func TestThresholdAgainstOracle(t *testing.T) {
	cases := []struct {
		m, theta, n int
		seed        int64
		clustered   bool
	}{
		{m: 1, theta: 8, n: 400, seed: 1},
		{m: 2, theta: 10, n: 800, seed: 2},
		{m: 2, theta: 25, n: 800, seed: 3, clustered: true},
		{m: 3, theta: 12, n: 600, seed: 4},
		{m: 4, theta: 15, n: 400, seed: 5},
	}
	for _, c := range cases {
		name := fmt.Sprintf("m%d_theta%d_n%d", c.m, c.theta, c.n)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			maxDepth := 24
			ix, err := New(dht.MustNewLocal(32), index.Tuning{
				Dims: c.m, Capacity: c.theta, MergeThreshold: c.theta / 2, MaxDepth: maxDepth,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := kdtree.NewTree(c.m, c.theta, c.theta/2, maxDepth)
			if err != nil {
				t.Fatal(err)
			}
			var points []spatial.Point
			if c.clustered {
				points = clusteredPoints(rng, c.m, c.n)
			} else {
				points = randomPoints(rng, c.m, c.n)
			}
			for i, p := range points {
				rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
				if err := ix.Insert(rec); err != nil {
					t.Fatalf("Insert #%d %v: %v", i, p, err)
				}
				if err := oracle.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			assertMatchesOracle(t, ix, oracle)

			// Lookups agree with the oracle's leaf assignment.
			for _, p := range points[:min(len(points), 200)] {
				b, err := ix.Lookup(p)
				if err != nil {
					t.Fatalf("Lookup(%v): %v", p, err)
				}
				leaf, err := oracle.LeafFor(p)
				if err != nil {
					t.Fatal(err)
				}
				if b.Label != leaf.Label {
					t.Fatalf("Lookup(%v) = %v, oracle leaf %v", p, b.Label, leaf.Label)
				}
			}

			// Range queries agree with the oracle for random rectangles.
			for trial := 0; trial < 60; trial++ {
				q := randomRect(rng, c.m)
				want, err := oracle.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ix.RangeQuery(q)
				if err != nil {
					t.Fatalf("RangeQuery(%v): %v", q, err)
				}
				if !sameRecordSet(res.Records, want) {
					t.Fatalf("RangeQuery(%v) = %d records, oracle %d", q, len(res.Records), len(want))
				}
				if res.Lookups < 1 || res.Rounds < 1 || res.Rounds > res.Lookups {
					t.Fatalf("implausible cost: %+v", res)
				}
				// The parallel variant returns the same answer.
				for _, h := range []int{2, 4} {
					pres, err := ix.RangeQueryParallel(q, h)
					if err != nil {
						t.Fatalf("RangeQueryParallel(%v, %d): %v", q, h, err)
					}
					if !sameRecordSet(pres.Records, want) {
						t.Fatalf("parallel-%d RangeQuery(%v) differs: %d vs %d records",
							h, q, len(pres.Records), len(want))
					}
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

// TestDeleteAgainstOracle runs a mixed insert/delete workload against the
// oracle, checking merges keep the structures identical.
func TestDeleteAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, theta, maxDepth := 2, 10, 24
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Dims: m, Capacity: theta, MergeThreshold: theta / 2, MaxDepth: maxDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := kdtree.NewTree(m, theta, theta/2, maxDepth)
	if err != nil {
		t.Fatal(err)
	}
	var live []spatial.Record
	id := 0
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			rec := spatial.Record{Key: randomPoints(rng, m, 1)[0], Data: fmt.Sprintf("r%d", id)}
			id++
			if err := ix.Insert(rec); err != nil {
				t.Fatalf("step %d Insert: %v", step, err)
			}
			if err := oracle.Insert(rec); err != nil {
				t.Fatal(err)
			}
			live = append(live, rec)
		} else {
			i := rng.Intn(len(live))
			rec := live[i]
			live = append(live[:i], live[i+1:]...)
			ok, err := ix.Delete(rec.Key, rec.Data)
			if err != nil {
				t.Fatalf("step %d Delete(%v): %v", step, rec.Key, err)
			}
			if !ok {
				t.Fatalf("step %d Delete(%v) found nothing", step, rec.Key)
			}
			ok, err = oracle.Delete(rec.Key, rec.Data)
			if err != nil || !ok {
				t.Fatalf("oracle delete: %v, %v", ok, err)
			}
		}
	}
	assertMatchesOracle(t, ix, oracle)
	if n, err := ix.Size(); err != nil || n != len(live) {
		t.Fatalf("Size = %d, want %d (%v)", n, len(live), err)
	}
	// Deleting everything shrinks the structure back towards the root.
	for _, rec := range live {
		if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
			t.Fatalf("final Delete(%v): %v, %v", rec.Key, ok, err)
		}
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) > 3 {
		t.Errorf("after deleting everything, %d buckets remain (merges not cascading)", len(buckets))
	}
	if ok, err := ix.Delete(spatial.Point{0.42, 0.42}, ""); err != nil || ok {
		t.Errorf("Delete(absent) = %v, %v", ok, err)
	}
	if _, err := ix.Delete(spatial.Point{0.5}, ""); !errors.Is(err, ErrDimension) {
		t.Errorf("wrong-dim delete: %v", err)
	}
}

// TestIncrementalSplitMovesHalf pins Theorem 5's cost claim: a single split
// moves only the records of the child not named to the old key.
func TestIncrementalSplitMovesHalf(t *testing.T) {
	theta := 10
	ix := newIndex(t, index.Tuning{Capacity: theta, MergeThreshold: theta / 2})
	rng := rand.New(rand.NewSource(2))
	// Fill the root bucket to exactly θ records — no split yet.
	for i := 0; i < theta; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Stats()
	if before.Splits != 0 {
		t.Fatalf("premature split: %+v", before)
	}
	// The θ+1-st record triggers the split.
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "trigger"}); err != nil {
		t.Fatal(err)
	}
	delta := ix.Stats().Sub(before)
	if delta.Splits < 1 {
		t.Fatalf("no split happened: %+v", delta)
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	stayLoad := -1
	total := 0
	for _, b := range buckets {
		total += b.Load()
		if bitlabel.Name(b.Label, 2) == bitlabel.VirtualRoot(2) {
			stayLoad = b.Load()
		}
	}
	if total != theta+1 {
		t.Fatalf("records after split = %d", total)
	}
	if stayLoad < 0 {
		t.Fatal("no bucket remained at the root's key")
	}
	// Moved records = inserted record (1) + everything that left the old
	// key (total - stayLoad).
	wantMoved := int64(1 + total - stayLoad)
	if delta.RecordsMoved != wantMoved {
		t.Errorf("RecordsMoved delta = %d, want %d (stay=%d)", delta.RecordsMoved, wantMoved, stayLoad)
	}
}

// hierarchicalPoints mimics the paper's NE postal data: metro centres with
// town subclusters and tight street-level clusters, plus sparse background
// noise. Multi-scale skew is what separates the splitting strategies.
func hierarchicalPoints(rng *rand.Rand, n int) []spatial.Point {
	metros := [][2]float64{{0.25, 0.7}, {0.5, 0.45}, {0.75, 0.2}}
	var towns [][2]float64
	for _, c := range metros {
		for t := 0; t < 8; t++ {
			towns = append(towns, [2]float64{
				clamp01(c[0] + rng.NormFloat64()*0.05),
				clamp01(c[1] + rng.NormFloat64()*0.05),
			})
		}
	}
	out := make([]spatial.Point, n)
	for i := range out {
		if rng.Float64() < 0.02 {
			out[i] = spatial.Point{rng.Float64(), rng.Float64()}
			continue
		}
		tw := towns[rng.Intn(len(towns))]
		out[i] = spatial.Point{
			clamp01(tw[0] + rng.NormFloat64()*0.004),
			clamp01(tw[1] + rng.NormFloat64()*0.004),
		}
	}
	return out
}

// TestDataAwareStrategy: the data-aware index stays consistent and, on
// multi-scale clustered data, yields fewer empty buckets than threshold
// splitting with a comparable bucket count — the §7.3 claim.
func TestDataAwareStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	points := hierarchicalPoints(rng, 8000)

	aware, err := New(dht.MustNewLocal(16), index.Tuning{
		Dims: 2, Strategy: SplitDataAware, Epsilon: 35, Capacity: 50, MergeThreshold: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := New(dht.MustNewLocal(16), index.Tuning{
		Dims: 2, Strategy: SplitThreshold, Capacity: 50, MergeThreshold: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
		if err := aware.Insert(rec); err != nil {
			t.Fatalf("data-aware Insert #%d: %v", i, err)
		}
		if err := threshold.Insert(rec); err != nil {
			t.Fatalf("threshold Insert #%d: %v", i, err)
		}
	}
	// Consistency: everything is retrievable and range queries match a
	// linear scan.
	for trial := 0; trial < 40; trial++ {
		q := randomRect(rng, 2)
		want := 0
		for _, p := range points {
			if q.Contains(p) {
				want++
			}
		}
		res, err := aware.RangeQuery(q)
		if err != nil {
			t.Fatalf("RangeQuery: %v", err)
		}
		if len(res.Records) != want {
			t.Fatalf("data-aware RangeQuery(%v) = %d records, want %d", q, len(res.Records), want)
		}
	}
	emptyFrac := func(ix *Index) (float64, int) {
		bs, err := ix.Buckets()
		if err != nil {
			t.Fatal(err)
		}
		empty := 0
		for _, b := range bs {
			if b.Load() == 0 {
				empty++
			}
		}
		return float64(empty) / float64(len(bs)), len(bs)
	}
	awareEmpty, awareN := emptyFrac(aware)
	thrEmpty, thrN := emptyFrac(threshold)
	t.Logf("data-aware: %d buckets, %.1f%% empty; threshold: %d buckets, %.1f%% empty",
		awareN, 100*awareEmpty, thrN, 100*thrEmpty)
	if awareEmpty > thrEmpty {
		t.Errorf("data-aware splitting has more empty buckets (%.3f) than threshold (%.3f)",
			awareEmpty, thrEmpty)
	}
}

// TestParallelTradeoff: averaged over queries, higher lookahead h must not
// increase latency (rounds) and must not decrease bandwidth (lookups) —
// the §6 trade-off.
func TestParallelTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := newIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5})
	for i, p := range randomPoints(rng, 2, 2000) {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	var basicRounds, p4Rounds, basicLookups, p4Lookups int
	for trial := 0; trial < 50; trial++ {
		q := spanRect(rng, 2, 0.3)
		b, err := ix.RangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		p4, err := ix.RangeQueryParallel(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		basicRounds += b.Rounds
		p4Rounds += p4.Rounds
		basicLookups += b.Lookups
		p4Lookups += p4.Lookups
	}
	t.Logf("basic: rounds=%d lookups=%d; parallel-4: rounds=%d lookups=%d",
		basicRounds, basicLookups, p4Rounds, p4Lookups)
	if p4Rounds > basicRounds {
		t.Errorf("parallel-4 total rounds %d exceed basic %d", p4Rounds, basicRounds)
	}
	if p4Lookups < basicLookups {
		t.Errorf("parallel-4 total lookups %d below basic %d", p4Lookups, basicLookups)
	}
	if _, err := ix.RangeQueryParallel(spanRect(rng, 2, 0.1), 0); err == nil {
		t.Error("h=0 accepted")
	}
}

// spanRect returns a random rectangle with the given total area (span),
// clipped inside the unit square.
func spanRect(rng *rand.Rand, m int, span float64) spatial.Rect {
	side := 1.0
	for d := 0; d < m; d++ {
		side *= 1.0
	}
	side = powRoot(span, m)
	lo := make(spatial.Point, m)
	hi := make(spatial.Point, m)
	for d := 0; d < m; d++ {
		start := rng.Float64() * (1 - side)
		lo[d] = start
		hi[d] = start + side
	}
	return spatial.Rect{Lo: lo, Hi: hi}
}

func powRoot(x float64, m int) float64 {
	if m == 1 {
		return x
	}
	// m-th root via repeated square root for m a power of two, else a
	// short Newton iteration.
	guess := x
	for i := 0; i < 60; i++ {
		next := guess - (pow(guess, m)-x)/(float64(m)*pow(guess, m-1))
		if next <= 0 {
			next = guess / 2
		}
		if diff := next - guess; diff < 1e-12 && diff > -1e-12 {
			return next
		}
		guess = next
	}
	return guess
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// TestRangeQueryWithinLeaf covers Algorithm 2's NULL branch: a range
// strictly inside one leaf resolves through a corner lookup.
func TestRangeQueryWithinLeaf(t *testing.T) {
	ix := newIndex(t, index.Tuning{Capacity: 100})
	for i, p := range randomPoints(rand.New(rand.NewSource(5)), 2, 50) {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Tree is a single root leaf; a tiny query's LCA is far below it.
	q, _ := spatial.NewRect(spatial.Point{0.41, 0.41}, spatial.Point{0.42, 0.42})
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups < 2 {
		t.Errorf("NULL branch should cost LCA probe + lookup probes, got %d", res.Lookups)
	}
}

func TestLookupProbesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ix := newIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5})
	points := randomPoints(rng, 2, 3000)
	for i, p := range points {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	maxProbes := 0
	total := 0
	for _, p := range points[:500] {
		_, trace, err := ix.LookupTraced(p)
		if err != nil {
			t.Fatal(err)
		}
		if trace.Probes > maxProbes {
			maxProbes = trace.Probes
		}
		total += trace.Probes
	}
	// Binary search over D+1 = 29 candidates: ceil(log2(29)) = 5 plus
	// slack for the naming indirection.
	if maxProbes > 7 {
		t.Errorf("max lookup probes = %d, want ≤ 7", maxProbes)
	}
	// Without a cache the search is exactly the §5 bisection: the leaf
	// cache's bound must not reach it.
	if total != 1630 {
		t.Errorf("uncached lookups took %d probes on this seed, the §5 search takes 1630", total)
	}
	t.Logf("lookup probes: mean=%.2f max=%d", float64(total)/500, maxProbes)
}

func TestStatsAccounting(t *testing.T) {
	ix := newIndex(t, index.Tuning{Capacity: 100})
	before := ix.Stats()
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	delta := ix.Stats().Sub(before)
	// One insert with no split: lookup probes + 1 apply, 1 record moved.
	if delta.RecordsMoved != 1 {
		t.Errorf("RecordsMoved = %d, want 1", delta.RecordsMoved)
	}
	if delta.DHTLookups < 2 {
		t.Errorf("DHTLookups = %d, want ≥ 2", delta.DHTLookups)
	}
	ix.ResetStats()
	if ix.Stats() != (ix.Stats().Sub(ix.Stats().Sub(ix.Stats()))) {
		t.Error("ResetStats broken")
	}
}

func TestBucketsOnOpaqueSubstrate(t *testing.T) {
	ix, err := New(opaque{dht.MustNewLocal(1)}, index.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Buckets(); !errors.Is(err, dht.ErrNotEnumerable) {
		t.Errorf("Buckets on opaque substrate: %v", err)
	}
}

type opaque struct{ dht.DHT }

// TestHighDimensionalOracle pushes the oracle comparison to m = 5 and 6,
// beyond the paper's 2-D evaluation.
func TestHighDimensionalOracle(t *testing.T) {
	for _, m := range []int{5, 6} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(m)))
			theta, maxDepth := 12, 20
			ix, err := New(dht.MustNewLocal(16), index.Tuning{
				Dims: m, Capacity: theta, MergeThreshold: theta / 2, MaxDepth: maxDepth,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := kdtree.NewTree(m, theta, theta/2, maxDepth)
			if err != nil {
				t.Fatal(err)
			}
			points := randomPoints(rng, m, 300)
			for i, p := range points {
				rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}
				if err := ix.Insert(rec); err != nil {
					t.Fatalf("insert #%d: %v", i, err)
				}
				if err := oracle.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			assertMatchesOracle(t, ix, oracle)
			for trial := 0; trial < 20; trial++ {
				q := randomRect(rng, m)
				want, err := oracle.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ix.RangeQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRecordSet(res.Records, want) {
					t.Fatalf("m=%d RangeQuery(%v) = %d, oracle %d", m, q, len(res.Records), len(want))
				}
			}
		})
	}
}

// failingDHT fails Puts after a budget, exercising maintenance error paths.
type failingDHT struct {
	dht.DHT
	putsLeft int
}

func (f *failingDHT) Put(key dht.Key, value any) error {
	if f.putsLeft <= 0 {
		return errors.New("injected put failure")
	}
	f.putsLeft--
	return f.DHT.Put(key, value)
}

func TestInsertSurfacesSubstrateFailures(t *testing.T) {
	inner := dht.MustNewLocal(4)
	flaky := &failingDHT{DHT: inner, putsLeft: 1 << 30}
	ix, err := New(flaky, index.Tuning{Capacity: 4, MergeThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	// Cut off puts so the next split's placement fails.
	flaky.putsLeft = 0
	var sawErr bool
	for i := 0; i < 50; i++ {
		p := spatial.Point{rng.Float64(), rng.Float64()}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("substrate put failures never surfaced from Insert")
	}
}

func TestBucketKeyAndDHTAccessor(t *testing.T) {
	ix := newIndex(t, index.Tuning{})
	if ix.DHT() == nil {
		t.Fatal("DHT() returned nil")
	}
	if err := ix.Insert(spatial.Record{Key: spatial.Point{0.3, 0.3}, Data: "x"}); err != nil {
		t.Fatal(err)
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		// The bucket must actually be stored under Bucket.Key.
		v, found, err := ix.DHT().Get(b.Key(2))
		if err != nil || !found {
			t.Fatalf("bucket %v not at its Key: %v, %v", b.Label, found, err)
		}
		got, ok := v.(Bucket)
		if !ok || got.Label != b.Label {
			t.Fatalf("key holds %v, want %v", got.Label, b.Label)
		}
	}
}
