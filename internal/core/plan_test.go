package core

import (
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/spatial"
)

// TestPlannerImportsNothingItCouldDriveWith keeps plan.go and its write-side
// twin commit.go pure: a planner that can reach the DHT, a trace collector, a
// counter or a lock is a driver.
func TestPlannerImportsNothingItCouldDriveWith(t *testing.T) {
	for _, file := range []string{"plan.go", "commit.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "mlight/internal/dht", "mlight/internal/trace", "mlight/internal/metrics", "sync":
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

// randomLeaves grows a seeded random kd-tree below the ordinary root and
// returns its leaves: a prefix-free label set that covers the space.
func randomLeaves(rng *rand.Rand, m, maxDepth int) []bitlabel.Label {
	var leaves []bitlabel.Label
	var grow func(l bitlabel.Label)
	grow = func(l bitlabel.Label) {
		if l.Len() >= m+1+maxDepth || rng.Intn(4) == 0 {
			leaves = append(leaves, l)
			return
		}
		grow(l.MustAppend(0))
		grow(l.MustAppend(1))
	}
	grow(bitlabel.Root(m))
	return leaves
}

// inside reports whether r lies within outer.
func inside(r, outer spatial.Rect) bool {
	for d := range r.Lo {
		if r.Lo[d] < outer.Lo[d] || r.Hi[d] > outer.Hi[d] {
			return false
		}
	}
	return true
}

// overlapVolume is the volume two closed rectangles share; rectangles that
// only touch along a face share none.
func overlapVolume(a, b spatial.Rect) float64 {
	v := 1.0
	for d := range a.Lo {
		side := math.Min(a.Hi[d], b.Hi[d]) - math.Max(a.Lo[d], b.Lo[d])
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// checkTiling asserts that parts are pairwise disjoint, lie inside whole, sit
// inside their own node's cell, and together with covered fill whole.
func checkTiling(t *testing.T, what string, m int, whole spatial.Rect, covered float64, parts []piece) {
	t.Helper()
	sum := covered
	for i, p := range parts {
		if !inside(p.Q, whole) {
			t.Fatalf("%s: piece %v %v leaves %v", what, p.Node, p.Q, whole)
		}
		cell, err := spatial.RegionOf(p.Node, m)
		if err != nil {
			t.Fatal(err)
		}
		if !inside(p.Q, cell.Rect()) {
			t.Fatalf("%s: piece %v subrange %v leaves its cell %v", what, p.Node, p.Q, cell)
		}
		for _, o := range parts[:i] {
			if v := overlapVolume(p.Q, o.Q); v > 0 {
				t.Fatalf("%s: pieces %v and %v overlap by %g", what, p.Node, o.Node, v)
			}
		}
		sum += p.Q.Area()
	}
	if math.Abs(sum-whole.Area()) > 1e-12 {
		t.Fatalf("%s: parts cover %g of %v (volume %g)", what, sum, whole, whole.Area())
	}
}

// TestPlannerTilesTheRange is the paper's "subranges never overlap, so no
// bucket is visited redundantly" as a DHT-free property: for any leaf of any
// tree, any ancestor β of it and any rectangle inside β's cell, the pieces
// decompose emits plus the leaf's own share tile the rectangle; speculate
// tiles each piece again with at most h parts; and the cover candidates of
// an overshot part are the deepest-first, duplicate-free names above it.
func TestPlannerTilesTheRange(t *testing.T) {
	const maxDepth = 9
	for _, m := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(31 + m)))
		for tree := 0; tree < 20; tree++ {
			leaves := randomLeaves(rng, m, maxDepth)
			for trial := 0; trial < 60; trial++ {
				leaf := leaves[rng.Intn(len(leaves))]
				beta := leaf.Prefix(m + 1 + rng.Intn(leaf.Len()-m))
				betaCell, err := spatial.RegionOf(beta, m)
				if err != nil {
					t.Fatal(err)
				}
				q, ok := betaCell.Intersect(randomRect(rng, m))
				if !ok {
					continue
				}
				leafCell, err := spatial.RegionOf(leaf, m)
				if err != nil {
					t.Fatal(err)
				}
				pieces, _, err := decompose(leaf, beta, q, m, nil, &rectSlab{dims: m})
				if err != nil {
					t.Fatal(err)
				}
				checkTiling(t, "decompose", m, q, overlapVolume(leafCell.Rect(), q), pieces)

				for _, p := range pieces {
					if p.Base != p.Node || !beta.IsPrefixOf(p.Node) || p.Node.IsPrefixOf(leaf) {
						t.Fatalf("decompose: piece %v is not a branch node of %v below %v", p.Node, leaf, beta)
					}
					for _, h := range []int{1, 2, 4, 8} {
						parts := speculate(p.Node, p.Q, h, m, maxDepth, nil, &rectSlab{dims: m})
						if len(parts) > h {
							t.Fatalf("speculate(h=%d) returned %d pieces", h, len(parts))
						}
						checkTiling(t, "speculate", m, p.Q, 0, parts)
						for _, part := range parts {
							if part.Base != p.Node || !p.Node.IsPrefixOf(part.Node) {
								t.Fatalf("speculate: part %v (base %v) not below %v", part.Node, part.Base, p.Node)
							}
							checkCoverCandidates(t, part, m)
						}
					}
				}
			}
		}
	}
}

// checkCoverCandidates asserts the candidate names of an overshot part are
// strictly deepest-first (hence duplicate-free), all name a label on the path
// to the part's node, and never include the name that already missed.
func checkCoverCandidates(t *testing.T, p piece, m int) {
	t.Helper()
	names := coverCandidates(p, m)
	if p.Node == p.Base && len(names) != 0 {
		t.Fatalf("coverCandidates(%v) = %v for a piece that speculated nothing", p.Node, names)
	}
	for i, name := range names {
		if name == bitlabel.Name(p.Node, m) {
			t.Fatalf("coverCandidates(%v) = %v contains the name that already missed", p.Node, names)
		}
		if !name.IsPrefixOf(p.Node) {
			t.Fatalf("coverCandidates(%v) = %v: %v names no label above the node", p.Node, names, name)
		}
		if i > 0 && name.Len() >= names[i-1].Len() {
			t.Fatalf("coverCandidates(%v) = %v is not deepest-first", p.Node, names)
		}
	}
}

// edgeRect draws an m-dimensional rectangle whose every axis is one of the
// planner's edge cases: a small or large extent anywhere, a face on a cell
// midpoint, a face at 1.0, zero width (on a midpoint or not), or a corner
// outside the unit cube.
func edgeRect(rng *rand.Rand, m int) spatial.Rect {
	midpoint := func() float64 {
		j := 1 + rng.Intn(10)
		return float64(2*rng.Intn(1<<(j-1))+1) / float64(int(1)<<j)
	}
	lo, hi := make(spatial.Point, m), make(spatial.Point, m)
	for d := range lo {
		c, w := rng.Float64(), rng.Float64()/float64(int(1)<<rng.Intn(12))
		a, b := c-w/2, c+w/2
		switch rng.Intn(8) {
		case 0:
			a = midpoint()
		case 1:
			b = midpoint()
		case 2:
			b = 1
		case 3:
			a = midpoint()
			b = a
		case 4:
			b = a
		case 5:
			a = -rng.Float64() / 4
		case 6:
			b = 1 + rng.Float64()/4
		}
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return spatial.Rect{Lo: lo, Hi: hi}
}

// samePieces fails unless got and want name the same nodes and bases in the
// same order, with subranges equal to the bit.
func samePieces(t *testing.T, what string, got, want []piece) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pieces, reference %d: %v vs %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Base != w.Base || !sameBits(g.Q.Lo, w.Q.Lo) || !sameBits(g.Q.Hi, w.Q.Hi) {
			t.Fatalf("%s: piece %d is %v/%v %v, reference %v/%v %v", what, i, g.Node, g.Base, g.Q, w.Node, w.Base, w.Q)
		}
	}
}

func sameBits(a, b spatial.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// edgeBucket fills a bucket of leaf with n records: random points, and points
// on q's faces and corners (clamped into the unit cube).
func edgeBucket(rng *rand.Rand, leaf bitlabel.Label, q spatial.Rect, n, m int) Bucket {
	records := randomRecords(rng, n, m)
	for _, rec := range records {
		for d := range rec.Key {
			switch rng.Intn(4) {
			case 0:
				rec.Key[d] = math.Max(0, math.Min(1, q.Lo[d]))
			case 1:
				rec.Key[d] = math.Max(0, math.Min(1, q.Hi[d]))
			}
		}
	}
	return NewBucket(leaf, records)
}

// TestPlannerMatchesReference holds the in-place planner to the reference's
// copies of the kernels it replaced (engine_equiv_test.go), DHT-free, for
// m = 1…4 on rectangles drawn to hit every edge: queryLCA, decompose, tile
// and speculate return the same labels, bases and subrange bits, and
// filterRecords the same records in the same order, with and without a
// circle. MLIGHT_TEST_SEED moves the draws.
func TestPlannerMatchesReference(t *testing.T) {
	const maxDepth = 9
	seed := dhttest.SeedFromEnv(1)
	for m := 1; m <= 4; m++ {
		rng := rand.New(rand.NewSource(seed*10 + int64(m)))
		for tree := 0; tree < 12; tree++ {
			leaves := randomLeaves(rng, m, maxDepth)
			internal := make(map[bitlabel.Label]bool)
			var internals []bitlabel.Label
			for _, leaf := range leaves {
				for l := m + 1; l < leaf.Len(); l++ {
					if p := leaf.Prefix(l); !internal[p] {
						internal[p] = true
						internals = append(internals, p)
					}
				}
			}
			known := func(l bitlabel.Label) bool { return internal[l] }
			for trial := 0; trial < 80; trial++ {
				q := edgeRect(rng, m)
				what := fmt.Sprintf("m=%d tree %d trial %d %v", m, tree, trial, q)
				center := make(spatial.Point, m)
				for d := range center {
					center[d] = rng.Float64()
				}
				for _, shape := range []spatial.Shape{nil, spatial.Circle{Center: center, Radius: rng.Float64() / 2}} {
					what := fmt.Sprintf("%s shape %v", what, shape)

					lca, err := queryLCA(q, m, maxDepth)
					wantLCA, wantErr := oldQueryLCA(q, m, maxDepth)
					if lca != wantLCA || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: queryLCA = %v, %v; reference %v, %v", what, lca, err, wantLCA, wantErr)
					}

					leaf := leaves[rng.Intn(len(leaves))]
					beta := leaf.Prefix(m + 1 + rng.Intn(leaf.Len()-m))
					pieces, _, err := decompose(leaf, beta, q, m, shape, &rectSlab{dims: m})
					wantPieces, wantErr := oldDecompose(leaf, beta, q, m, shape)
					if err != nil || wantErr != nil {
						t.Fatalf("%s: decompose(%v, %v) errors %v, reference %v", what, leaf, beta, err, wantErr)
					}
					samePieces(t, fmt.Sprintf("%s decompose(%v, %v)", what, leaf, beta), pieces, wantPieces)
					for _, h := range []int{2, 3, 8} {
						for _, p := range pieces {
							samePieces(t, fmt.Sprintf("%s speculate(%v, h=%d)", what, p.Node, h),
								speculate(p.Node, p.Q, h, m, maxDepth, shape, &rectSlab{dims: m}),
								oldSpeculate(p.Node, p.Q, h, m, maxDepth, shape))
						}
					}

					if len(internals) > 0 {
						for _, from := range []bitlabel.Label{lca, internals[rng.Intn(len(internals))]} {
							if internal[from] {
								samePieces(t, fmt.Sprintf("%s tile(%v)", what, from),
									tile(from, q, m, shape, known), oldTile(from, q, m, shape, known))
							}
						}
					}

					for _, n := range []int{0, 1, 7, 60, 200} {
						b := edgeBucket(rng, leaf, q, n, m)
						got, want := filterRecords(b, q, shape).records(), oldFilterRecords(b, q, shape)
						if !sameRecords(got, want) {
							t.Fatalf("%s: filterRecords over %d records returned %d, reference %d (or ordering differs)", what, n, len(got), len(want))
						}
					}
				}
			}
		}
		// A bucket of another dimensionality holds nothing inside q.
		q := edgeRect(rng, m)
		b := NewBucket(bitlabel.Root(m+1), randomRecords(rng, 5, m+1))
		if got := filterRecords(b, q, nil).records(); got != nil || oldFilterRecords(b, q, nil) != nil {
			t.Fatalf("m=%d: a %d-dimensional bucket matched %d records", m, m+1, len(got))
		}
	}
	// Invalid rectangles are refused with the reference's words.
	nan := math.NaN()
	for _, q := range []spatial.Rect{
		{Lo: spatial.Point{0.2, nan}, Hi: spatial.Point{0.3, 0.4}},
		{Lo: spatial.Point{0.5, 0.1}, Hi: spatial.Point{0.4, 0.2}},
		{Lo: spatial.Point{0.1, 0.1}, Hi: spatial.Point{0.2}},
		{Lo: spatial.Point{0.1}, Hi: spatial.Point{0.2}},
	} {
		_, err := queryLCA(q, 2, maxDepth)
		_, wantErr := oldQueryLCA(q, 2, maxDepth)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("queryLCA(%v) = %v, reference %v", q, err, wantErr)
		}
	}
}

// paperExampleQuery is the §6 example range with this repository's
// dim-0-first split order: LCA #10, whose corner cell #10101 forwards to
// three branch nodes.
func paperExampleQuery() (leaf, lca bitlabel.Label, q spatial.Rect) {
	return bitlabel.MustParse("001" + "10101"), bitlabel.MustParse("001" + "10"),
		spatial.Rect{Lo: spatial.Point{0.6, 0.1}, Hi: spatial.Point{0.8, 0.3}}
}

// TestDecomposeRangeExample reproduces the §6 range query example: below the
// LCA #10 the corner cell #10101's path runs #101, #1010, #10101, whose
// siblings #100, #1011, #10100 are exactly the three subranges the paper
// forwards to.
func TestDecomposeRangeExample(t *testing.T) {
	leaf, lca, q := paperExampleQuery()
	if got, err := queryLCA(q, 2, 28); err != nil || got != lca {
		t.Fatalf("queryLCA(%v) = %v, %v; want %v", q, got.Pretty(2), err, lca.Pretty(2))
	}
	pieces, _, err := decompose(leaf, lca, q, 2, nil, &rectSlab{dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"#100", "#1011", "#10100"}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %v, want %v", pieces, want)
	}
	for i, p := range pieces {
		if p.Node.Pretty(2) != want[i] || p.Base != p.Node {
			t.Errorf("piece %d = %s (base %s), want %s", i, p.Node.Pretty(2), p.Base.Pretty(2), want[i])
		}
	}
}

// TestDecomposePaperExample checks Fig. 1b through decompose: the local tree
// of leaf #101111 (2-D) has branch nodes #0, #11, #100, #1010, #10110,
// #101110, and a range over the whole space is forwarded to all of them from
// the root, shallowest first.
func TestDecomposePaperExample(t *testing.T) {
	leaf := bitlabel.MustParse("001" + "101111")
	pieces, _, err := decompose(leaf, bitlabel.Root(2), spatial.UnitCube(2).Rect(), 2, nil, &rectSlab{dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"#0", "#11", "#100", "#1010", "#10110", "#101110"}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %v, want %v", pieces, want)
	}
	for i, p := range pieces {
		if p.Node.Pretty(2) != want[i] {
			t.Errorf("branch %d = %s, want %s", i, p.Node.Pretty(2), want[i])
		}
	}
	if _, _, err := decompose(bitlabel.MustParse("11"), bitlabel.Root(2), spatial.UnitCube(2).Rect(), 2, nil, &rectSlab{dims: 2}); err == nil {
		t.Error("a leaf off the root decomposed")
	}
}

// TestPlannerAllocs pins what a range's planning allocates: queryLCA nothing
// up to spatial.StackDims dimensions, decompose its pieces and their one
// block of subranges, filterRecords nothing without a hit and the list of
// its hits otherwise — one allocation at 50 or 100 hits, never one a hit —
// labelKey the key.
func TestPlannerAllocs(t *testing.T) {
	if dhttest.RaceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	for m := 1; m <= spatial.StackDims; m++ {
		q := spatial.Rect{Lo: make(spatial.Point, m), Hi: make(spatial.Point, m)}
		for d := range q.Lo {
			q.Lo[d], q.Hi[d] = 0.3, 0.3001
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if lca, err := queryLCA(q, m, 28); err != nil || lca.Len() <= m+1 {
				t.Fatalf("queryLCA = %v, %v", lca, err)
			}
		}); allocs != 0 {
			t.Errorf("queryLCA at m=%d allocates %.1f objects, want 0", m, allocs)
		}
	}

	leaf, lca, q := paperExampleQuery()
	if allocs := testing.AllocsPerRun(50, func() {
		if pieces, _, err := decompose(leaf, lca, q, 2, nil, &rectSlab{dims: 2}); err != nil || len(pieces) != 3 {
			t.Fatalf("decompose = %v, %v", pieces, err)
		}
	}); allocs > 3 {
		t.Errorf("decompose into three pieces allocates %.1f objects, want ≤ 3", allocs)
	}

	// What a bucket costs a query is the list of its hits, however many it
	// has, and nothing without one: the answer is built once per query.
	rng := rand.New(rand.NewSource(23))
	b := NewBucket(bitlabel.Root(2), randomRecords(rng, 50, 2))
	b100 := NewBucket(bitlabel.Root(2), randomRecords(rng, 100, 2))
	miss := spatial.Rect{Lo: spatial.Point{2, 2}, Hi: spatial.Point{3, 3}}
	circle := spatial.Circle{Center: spatial.Point{0.5, 0.5}, Radius: 0.3}
	for _, tc := range []struct {
		name  string
		b     Bucket
		q     spatial.Rect
		shape spatial.Shape
		hits  int // 0: none; -1: some
		want  float64
	}{
		{"no hit", b, miss, nil, 0, 0},
		{"no hit, circle", b, miss, circle, 0, 0},
		{"hits", b, spatial.Rect{Lo: spatial.Point{0.2, 0.2}, Hi: spatial.Point{0.7, 0.7}}, nil, -1, 1},
		{"hits, circle", b, spatial.Rect{Lo: spatial.Point{0.2, 0.2}, Hi: spatial.Point{0.8, 0.8}}, circle, -1, 1},
		{"50 hits", b, spatial.UnitCube(2).Rect(), nil, 50, 1},
		{"100 hits", b100, spatial.UnitCube(2).Rect(), nil, 100, 1},
	} {
		if allocs := testing.AllocsPerRun(50, func() {
			got := filterRecords(tc.b, tc.q, tc.shape).at
			if (len(got) == 0) != (tc.hits == 0) || tc.hits > 0 && len(got) != tc.hits {
				t.Fatalf("filterRecords %s returned %d records", tc.name, len(got))
			}
		}); allocs != tc.want {
			t.Errorf("filterRecords %s allocates %.1f objects, want %.0f", tc.name, allocs, tc.want)
		}
	}

	if allocs := testing.AllocsPerRun(50, func() { keySink = labelKey(leaf) }); allocs != 1 {
		t.Errorf("labelKey allocates %.1f objects, want 1", allocs)
	}
}

var keySink dht.Key

// TestLabelKeyBytes: the key framed in one array is, byte for byte, the
// concatenation it replaced.
func TestLabelKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels := []bitlabel.Label{bitlabel.Empty, bitlabel.Root(2), bitlabel.VirtualRoot(3)}
	for i := 0; i < 200; i++ {
		labels = append(labels, bitlabel.New(rng.Uint64(), rng.Intn(bitlabel.MaxLen+1)))
	}
	for _, l := range labels {
		if got, want := labelKey(l), dht.Key("mlight/"+l.Key()); got != want {
			t.Fatalf("labelKey(%v) = %q, want %q", l, got, want)
		}
	}
}
