package core

import (
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mlight/internal/bitlabel"
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
func checkTiling(t *testing.T, what string, m int, whole spatial.Rect, covered float64, parts []Piece) {
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
				pieces, err := decompose(leaf, beta, q, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkTiling(t, "decompose", m, q, overlapVolume(leafCell.Rect(), q), pieces)

				for _, p := range pieces {
					if p.Base != p.Node || !beta.IsPrefixOf(p.Node) || p.Node.IsPrefixOf(leaf) {
						t.Fatalf("decompose: piece %v is not a branch node of %v below %v", p.Node, leaf, beta)
					}
					for _, h := range []int{1, 2, 4, 8} {
						parts := speculate(p.Node, p.Q, h, m, maxDepth, nil)
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
func checkCoverCandidates(t *testing.T, p Piece, m int) {
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
