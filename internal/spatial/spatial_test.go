package spatial

import (
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
)

func TestPointBasics(t *testing.T) {
	p := Point{0.2, 0.4}
	if p.Dim() != 2 || !p.Valid() {
		t.Errorf("Dim/Valid wrong for %v", p)
	}
	q := p.Clone()
	q[0] = 0.9
	if p[0] != 0.2 {
		t.Error("Clone aliases the original")
	}
	if got := p.String(); got != "<0.2, 0.4>" {
		t.Errorf("String = %q", got)
	}
	if (Point{}).Valid() {
		t.Error("empty point valid")
	}
	if (Point{-0.1}).Valid() || (Point{1.1}).Valid() {
		t.Error("out-of-cube point valid")
	}
}

func TestNewRect(t *testing.T) {
	r, err := NewRect(Point{0.1, 0.6}, Point{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(Point{0.2, 0.7}) || !r.Contains(Point{0.1, 0.6}) || !r.Contains(Point{0.3, 0.8}) {
		t.Error("closed rect should contain interior and boundary")
	}
	if r.Contains(Point{0.05, 0.7}) || r.Contains(Point{0.2, 0.9}) {
		t.Error("rect contains outside point")
	}
	if _, err := NewRect(Point{0.5}, Point{0.2}); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect(Point{0.5}, Point{0.2, 0.3}); err == nil {
		t.Error("dim-mismatched rect accepted")
	}
	if _, err := NewRect(nil, nil); err == nil {
		t.Error("empty rect accepted")
	}
}

func TestRectArea(t *testing.T) {
	r, _ := NewRect(Point{0, 0}, Point{0.5, 0.2})
	if got := r.Area(); got != 0.1 {
		t.Errorf("Area = %v, want 0.1", got)
	}
}

func TestRegionContainsHalfOpen(t *testing.T) {
	g := Region{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	if !g.Contains(Point{0, 0}) || !g.Contains(Point{0.49, 0.49}) {
		t.Error("region misses interior points")
	}
	if g.Contains(Point{0.5, 0.2}) {
		t.Error("half-open region contains its upper face")
	}
	top := Region{Lo: Point{0.5, 0.5}, Hi: Point{1, 1}}
	if !top.Contains(Point{1, 1}) {
		t.Error("unit-cube boundary face should be closed")
	}
}

func TestRegionOverlapsCovers(t *testing.T) {
	g := Region{Lo: Point{0.25, 0.5}, Hi: Point{0.5, 0.75}}
	inside, _ := NewRect(Point{0.3, 0.55}, Point{0.4, 0.7})
	if !g.Overlaps(inside) || !g.Covers(inside) {
		t.Error("inside rect should overlap and be covered")
	}
	crossing, _ := NewRect(Point{0.4, 0.6}, Point{0.6, 0.7})
	if !g.Overlaps(crossing) || g.Covers(crossing) {
		t.Error("crossing rect should overlap but not be covered")
	}
	outside, _ := NewRect(Point{0.6, 0.1}, Point{0.9, 0.2})
	if g.Overlaps(outside) {
		t.Error("disjoint rect overlaps")
	}
	// A closed rect touching the region's open face at exactly Hi does not
	// overlap; touching Lo does.
	touchHi, _ := NewRect(Point{0.5, 0.5}, Point{0.7, 0.7})
	if g.Overlaps(touchHi) {
		t.Error("rect starting at open upper face overlaps")
	}
	touchLo, _ := NewRect(Point{0.1, 0.1}, Point{0.25, 0.5})
	if !g.Overlaps(touchLo) {
		t.Error("rect ending at closed lower face should overlap")
	}
	// Rect covering the whole cube is covered only by the whole cube.
	all, _ := NewRect(Point{0, 0}, Point{1, 1})
	if !UnitCube(2).Covers(all) {
		t.Error("unit cube should cover the all-rect")
	}
	if g.Covers(all) {
		t.Error("sub-region covers the all-rect")
	}
}

func TestRegionIntersect(t *testing.T) {
	g := Region{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	q, _ := NewRect(Point{0.25, 0.25}, Point{0.75, 0.75})
	ri, ok := g.Intersect(q)
	if !ok {
		t.Fatal("expected intersection")
	}
	if ri.Lo[0] != 0.25 || ri.Hi[0] != 0.5 || ri.Lo[1] != 0.25 || ri.Hi[1] != 0.5 {
		t.Errorf("Intersect = %v", ri)
	}
	far, _ := NewRect(Point{0.8, 0.8}, Point{0.9, 0.9})
	if _, ok := g.Intersect(far); ok {
		t.Error("disjoint Intersect reported overlap")
	}
}

func TestHalves(t *testing.T) {
	g := UnitCube(2)
	lo, hi := g.Halves(0)
	if lo.Hi[0] != 0.5 || hi.Lo[0] != 0.5 || lo.Hi[1] != 1 || hi.Hi[1] != 1 {
		t.Errorf("Halves(0) = %v, %v", lo, hi)
	}
	// Halves must not alias the parent.
	lo.Hi[1] = 0.123
	if g.Hi[1] != 1 {
		t.Error("Halves aliases parent region")
	}
}

func TestRegionOf(t *testing.T) {
	// 2-D: root covers everything; #0 = x<0.5; #01 = x<0.5, y>=0.5.
	m := 2
	root := bitlabel.Root(m)
	g, err := RegionOf(root, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.Lo[0] != 0 || g.Hi[0] != 1 {
		t.Errorf("root region = %v", g)
	}
	l0 := root.MustAppend(0)
	g, err = RegionOf(l0, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hi[0] != 0.5 || g.Hi[1] != 1 {
		t.Errorf("#0 region = %v", g)
	}
	l01 := l0.MustAppend(1)
	g, err = RegionOf(l01, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hi[0] != 0.5 || g.Lo[1] != 0.5 {
		t.Errorf("#01 region = %v", g)
	}
	// Virtual root also addresses the whole space.
	g, err = RegionOf(bitlabel.VirtualRoot(m), m)
	if err != nil || g.Lo[0] != 0 || g.Hi[1] != 1 {
		t.Errorf("virtual root region = %v, %v", g, err)
	}
	// Non-root-prefixed labels are rejected.
	if _, err := RegionOf(bitlabel.MustParse("11"), m); err == nil {
		t.Error("bad label accepted")
	}
}

// TestRegionOfMatchesPathLabel: the leaf region computed by label descent
// contains exactly the points whose PathLabel it prefixes. This pins the
// consistency between Interleave's bit order and RegionOf's split order.
func TestRegionOfMatchesPathLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for m := 1; m <= 4; m++ {
		for trial := 0; trial < 400; trial++ {
			// Random label of moderate depth.
			l := bitlabel.Root(m)
			for d := rng.Intn(12); d > 0; d-- {
				l = l.MustAppend(byte(rng.Intn(2)))
			}
			g, err := RegionOf(l, m)
			if err != nil {
				t.Fatal(err)
			}
			p := make(Point, m)
			for i := range p {
				p[i] = rng.Float64()
			}
			depth := l.Len() - (m + 1)
			path, err := bitlabel.PathLabel(p, depth+m)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := l.IsPrefixOf(path), g.Contains(p); got != want {
				t.Fatalf("m=%d label=%v point=%v: prefix=%v but contains=%v (region %v, path %v)",
					m, l, p, got, want, g, path)
			}
		}
	}
}

func TestLCALabel(t *testing.T) {
	m := 2
	// The paper's example: R = [0.1,0.3]×[0.6,0.8] has LCA #10.
	// With this repo's dim-0-first split order the same rectangle placed as
	// x∈[0.6,0.8] (dim 0), y∈[0.1,0.3] (dim 1) must give #10: dim0 upper
	// half (bit 1), then dim1 lower half (bit 0).
	q, _ := NewRect(Point{0.6, 0.1}, Point{0.8, 0.3})
	lca, err := LCALabel(q, m, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := lca.Pretty(m); got != "#10" {
		t.Errorf("LCA = %s, want #10", got)
	}
	// A rect spanning the first split stays at the root.
	wide, _ := NewRect(Point{0.4, 0.4}, Point{0.6, 0.6})
	lca, err = LCALabel(wide, m, 30)
	if err != nil {
		t.Fatal(err)
	}
	if lca != bitlabel.Root(m) {
		t.Errorf("LCA of centered rect = %v, want root", lca)
	}
	// LCA region must cover the rect.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		lo := Point{rng.Float64(), rng.Float64()}
		hi := Point{lo[0] + rng.Float64()*(1-lo[0]), lo[1] + rng.Float64()*(1-lo[1])}
		q, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		lca, err := LCALabel(q, m, 40)
		if err != nil {
			t.Fatal(err)
		}
		g, err := RegionOf(lca, m)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Covers(q) {
			t.Fatalf("LCA %v region %v does not cover %v", lca, g, q)
		}
		// And neither child covers it (lowest), unless capped by maxDepth.
		if lca.Len()-(m+1) < 40 {
			left := lca.MustAppend(0)
			right := lca.MustAppend(1)
			gl, _ := RegionOf(left, m)
			gr, _ := RegionOf(right, m)
			if gl.Covers(q) || gr.Covers(q) {
				t.Fatalf("LCA %v not lowest for %v", lca, q)
			}
		}
	}
	// Dimension mismatch errors.
	bad, _ := NewRect(Point{0.1}, Point{0.2})
	if _, err := LCALabel(bad, 2, 10); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestSplitDim(t *testing.T) {
	if SplitDim(0, 2) != 0 || SplitDim(1, 2) != 1 || SplitDim(2, 2) != 0 {
		t.Error("SplitDim cycle wrong for m=2")
	}
	if SplitDim(5, 3) != 2 {
		t.Error("SplitDim wrong for m=3")
	}
}

func TestRegionRect(t *testing.T) {
	g := Region{Lo: Point{0.25, 0}, Hi: Point{0.5, 0.5}}
	r := g.Rect()
	if r.Lo[0] != 0.25 || r.Hi[1] != 0.5 {
		t.Errorf("Rect = %v", r)
	}
	r.Lo[0] = 0.99
	if g.Lo[0] != 0.25 {
		t.Error("Rect aliases region")
	}
}

func TestStrings(t *testing.T) {
	g := Region{Lo: Point{0, 0}, Hi: Point{0.5, 1}}
	if got := g.String(); got != "[0, 0.5) × [0, 1]" {
		t.Errorf("Region.String = %q", got)
	}
	q, _ := NewRect(Point{0.1, 0.6}, Point{0.3, 0.8})
	if got := q.String(); got != "[0.1, 0.3] × [0.6, 0.8]" {
		t.Errorf("Rect.String = %q", got)
	}
}

// deepLabel draws d bits from rng and returns them below the m-dimensional
// root and as the plain z-order prefix PHT and DST address the same cell by.
func deepLabel(rng *rand.Rand, m, d int) (rooted, z bitlabel.Label) {
	rooted = bitlabel.Root(m)
	for ; d > 0; d-- {
		bit := byte(rng.Intn(2))
		rooted, z = rooted.MustAppend(bit), z.MustAppend(bit)
	}
	return rooted, z
}

// TestRegionOfMatchesHalves: the in-place descent lands, to the bit, on the
// cell that halving a fresh copy per level (Halves, which kdtree's splits
// still use) lands on — for the rooted and the plain z-order form, and over a
// Scratch's storage.
func TestRegionOfMatchesHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for m := 1; m <= StackDims+1; m++ {
		for trial := 0; trial < 200; trial++ {
			l, zl := deepLabel(rng, m, rng.Intn(40))
			want := UnitCube(m)
			for i := m + 1; i < l.Len(); i++ {
				lower, upper := want.Halves(SplitDim(i-(m+1), m))
				if want = lower; l.At(i) == 1 {
					want = upper
				}
			}
			got, err := RegionOf(l, m)
			if err != nil {
				t.Fatal(err)
			}
			z := ZRegionOf(zl, m)
			cell, err := s.Cell(l, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				if got.Lo[i] != want.Lo[i] || got.Hi[i] != want.Hi[i] {
					t.Fatalf("m=%d RegionOf(%v) = %v, halving copies gives %v", m, l, got, want)
				}
				if cell.Lo[i] != want.Lo[i] || cell.Hi[i] != want.Hi[i] {
					t.Fatalf("m=%d Scratch.Cell(%v) = %v, halving copies gives %v", m, l, cell, want)
				}
				if z.Lo[i] != want.Lo[i] || z.Hi[i] != want.Hi[i] {
					t.Fatalf("m=%d ZRegionOf(%v) = %v, halving copies gives %v", m, zl, z, want)
				}
			}
		}
	}
}

// TestRegionOfAllocs: a descent allocates the cube's two points and nothing
// per level (Halves cloned four points a level: 35 % of an in-memory insert).
func TestRegionOfAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, depth := range []int{0, 1, 12, 40} {
		l, z := deepLabel(rng, 2, depth)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := RegionOf(l, 2); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("RegionOf at depth %d: %v allocations, want 2", depth, got)
		}
		if got := testing.AllocsPerRun(100, func() { ZRegionOf(z, 2) }); got != 2 {
			t.Errorf("ZRegionOf at depth %d: %v allocations, want 2", depth, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			var s Scratch
			if _, err := s.Cell(l, 2); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Scratch.Cell at depth %d: %v allocations, want 0", depth, got)
		}
	}
}

var regionSink Region

func BenchmarkRegionOf(b *testing.B) {
	l, _ := deepLabel(rand.New(rand.NewSource(5)), 2, 14) // a leaf of a ~10⁵-record index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regionSink, _ = RegionOf(l, 2)
	}
}
