// Package spatial provides the geometric vocabulary of the m-LIGHT index:
// m-dimensional points in the unit cube, query rectangles, data records,
// and the cell regions addressed by kd-tree labels.
//
// Conventions. Data keys are points δ = <δ1,…,δm> with each δi ∈ [0,1]
// (paper §3.1). Cells produced by recursive bisection are half-open boxes
// [lo, hi) along each axis, except that a face at the upper boundary of the
// unit cube is closed so that the cube is exactly tiled. Query rectangles
// are closed boxes, matching the paper's example queries.
package spatial

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mlight/internal/bitlabel"
)

// Point is a data key: an m-dimensional vector with coordinates in [0,1].
type Point []float64

// Clone returns a copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Valid reports whether all coordinates lie in [0,1] and are finite.
func (p Point) Valid() bool {
	for _, c := range p {
		if math.IsNaN(c) || c < 0 || c > 1 {
			return false
		}
	}
	return len(p) > 0
}

// String renders the point in the paper's <δ1, δ2, …> notation.
func (p Point) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	for i, c := range p {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	sb.WriteByte('>')
	return sb.String()
}

// Record is one indexed data record: a multi-dimensional key plus an opaque
// payload. Records are the unit of the paper's data-movement metric.
type Record struct {
	Key  Point
	Data string
}

// Rect is a closed query rectangle [Lo, Hi] in all dimensions.
type Rect struct {
	Lo, Hi Point
}

// NewRect validates and builds a rectangle. Lo and Hi must have equal
// dimensionality and Lo[i] <= Hi[i] in every dimension.
func NewRect(lo, hi Point) (Rect, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("spatial: rect corners have dims %d and %d", len(lo), len(hi))
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) || lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("spatial: invalid rect extent [%v, %v] in dim %d", lo[i], hi[i], i)
		}
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// Dim returns the rectangle's dimensionality.
func (r Rect) Dim() int { return len(r.Lo) }

// Contains reports whether the closed rectangle contains p.
func (r Rect) Contains(p Point) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Area returns the product of the rectangle's extents.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// String renders the rectangle as [lo, hi] per dimension.
func (r Rect) String() string {
	var sb strings.Builder
	for i := range r.Lo {
		if i > 0 {
			sb.WriteString(" × ")
		}
		fmt.Fprintf(&sb, "[%g, %g]", r.Lo[i], r.Hi[i])
	}
	return sb.String()
}

// Region is a kd-tree cell: half-open [Lo, Hi) along each axis, with faces
// at the unit-cube boundary (Hi[i] == 1) closed.
type Region struct {
	Lo, Hi Point
}

// UnitCube returns the whole data space for dimensionality m.
func UnitCube(m int) Region {
	lo := make(Point, m)
	hi := make(Point, m)
	for i := range hi {
		hi[i] = 1
	}
	return Region{Lo: lo, Hi: hi}
}

// Dim returns the region's dimensionality.
func (g Region) Dim() int { return len(g.Lo) }

// Contains reports whether the cell contains point p under the half-open
// convention.
func (g Region) Contains(p Point) bool {
	if len(p) != len(g.Lo) {
		return false
	}
	for i := range p {
		if p[i] < g.Lo[i] {
			return false
		}
		if p[i] >= g.Hi[i] && g.Hi[i] != 1 {
			return false
		}
		if p[i] > g.Hi[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether the closed query rectangle q intersects the
// half-open cell g.
func (g Region) Overlaps(q Rect) bool {
	if len(q.Lo) != len(g.Lo) {
		return false
	}
	for i := range g.Lo {
		if q.Hi[i] < g.Lo[i] {
			return false
		}
		if q.Lo[i] >= g.Hi[i] && g.Hi[i] != 1 {
			return false
		}
		if q.Lo[i] > g.Hi[i] {
			return false
		}
	}
	return true
}

// Covers reports whether the cell fully covers the closed rectangle q.
func (g Region) Covers(q Rect) bool {
	if len(q.Lo) != len(g.Lo) {
		return false
	}
	for i := range g.Lo {
		if q.Lo[i] < g.Lo[i] {
			return false
		}
		if q.Hi[i] >= g.Hi[i] && g.Hi[i] != 1 {
			return false
		}
		if q.Hi[i] > g.Hi[i] {
			return false
		}
	}
	return true
}

// Intersect clips the closed rectangle q to the cell's closed hull,
// returning the overlapped subrange Ri = βi ∩ R of the paper's Algorithm 3.
// The boolean result is false when the intersection is empty.
func (g Region) Intersect(q Rect) (Rect, bool) {
	if !g.Overlaps(q) {
		return Rect{}, false
	}
	lo := make(Point, len(g.Lo))
	hi := make(Point, len(g.Lo))
	for i := range g.Lo {
		lo[i] = math.Max(q.Lo[i], g.Lo[i])
		hi[i] = math.Min(q.Hi[i], g.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}, true
}

// Rect returns the closed hull of the region, usable as a query covering
// exactly this cell.
func (g Region) Rect() Rect {
	return Rect{Lo: g.Lo.Clone(), Hi: g.Hi.Clone()}
}

// Halves splits the cell at its midpoint along dim, returning the lower
// (bit 0) and upper (bit 1) halves.
func (g Region) Halves(dim int) (lower, upper Region) {
	mid := (g.Lo[dim] + g.Hi[dim]) / 2
	lower = Region{Lo: g.Lo.Clone(), Hi: g.Hi.Clone()}
	upper = Region{Lo: g.Lo.Clone(), Hi: g.Hi.Clone()}
	lower.Hi[dim] = mid
	upper.Lo[dim] = mid
	return lower, upper
}

// halve narrows the cell, in place, to its lower (bit 0) or upper (bit 1) half
// along dim. A label's descent owns the one cube it allocated, so it halves
// that cube level by level where Halves would clone four points per level.
func (g Region) halve(dim int, bit byte) {
	mid := (g.Lo[dim] + g.Hi[dim]) / 2
	if bit == 0 {
		g.Hi[dim] = mid
	} else {
		g.Lo[dim] = mid
	}
}

// String renders the region with half-open brackets.
func (g Region) String() string {
	var sb strings.Builder
	for i := range g.Lo {
		if i > 0 {
			sb.WriteString(" × ")
		}
		bracket := ")"
		if g.Hi[i] == 1 {
			bracket = "]"
		}
		fmt.Fprintf(&sb, "[%g, %g%s", g.Lo[i], g.Hi[i], bracket)
	}
	return sb.String()
}

// SplitDim returns the dimension that a node at the given label depth splits
// along: the space is halved along dimensions 0,1,…,m-1 cyclically, starting
// at the ordinary root (paper §3.2). depthBelowRoot counts edges below the
// ordinary root "#".
func SplitDim(depthBelowRoot, m int) int {
	return depthBelowRoot % m
}

// RegionOf computes the cell addressed by a kd-tree label for
// dimensionality m. The label must extend (or equal) the ordinary root; the
// virtual root and the ordinary root both address the whole space.
func RegionOf(l bitlabel.Label, m int) (Region, error) {
	root := bitlabel.Root(m)
	if l == bitlabel.VirtualRoot(m) || l == root {
		return UnitCube(m), nil
	}
	if !root.IsPrefixOf(l) {
		return Region{}, fmt.Errorf("spatial: label %v does not extend the %d-dimensional root", l, m)
	}
	g := UnitCube(m)
	for i := root.Len(); i < l.Len(); i++ {
		g.halve(SplitDim(i-root.Len(), m), l.At(i))
	}
	return g, nil
}

// ZRegionOf computes the cell addressed by a plain z-order prefix (no root
// prefix): bit j halves dimension j mod m, exactly the partitioning of
// RegionOf below the ordinary root. PHT and DST address cells this way.
func ZRegionOf(l bitlabel.Label, m int) Region {
	g := UnitCube(m)
	for i := 0; i < l.Len(); i++ {
		g.halve(SplitDim(i, m), l.At(i))
	}
	return g
}

// LCALabel computes the lowest internal node of the (conceptually infinite)
// space kd-tree that fully covers the closed rectangle q — the lowest common
// ancestor of the paper's Algorithm 2. maxDepth bounds the descent below the
// ordinary root. The result always extends or equals the ordinary root.
func LCALabel(q Rect, m, maxDepth int) (bitlabel.Label, error) {
	if q.Dim() != m {
		return bitlabel.Label{}, fmt.Errorf("spatial: rect dim %d != m %d", q.Dim(), m)
	}
	l := bitlabel.Root(m)
	g := UnitCube(m)
	for depth := 0; depth < maxDepth && l.Len() < bitlabel.MaxLen; depth++ {
		dim := SplitDim(depth, m)
		lower, upper := g.Halves(dim)
		switch {
		case lower.Covers(q):
			l = l.MustAppend(0)
			g = lower
		case upper.Covers(q):
			l = l.MustAppend(1)
			g = upper
		default:
			return l, nil
		}
	}
	return l, nil
}
