package core

import (
	"fmt"
	"math"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// This file is the range-query planner: every decision of §6 (Algorithms 2
// and 3 and the parallel pre-split) as pure functions of labels, rectangles
// and one fetched bucket. It issues no DHT operation, starts no goroutine and
// touches no counter or trace collector — every peer can evaluate it because
// every peer knows the space-partitioning rule (§3.2). The round engine in
// range.go executes its plans.

// piece is one (node, subrange) unit of forwarding: resolve Q against the
// subtree rooted at Node. Base is the real tree node the speculation started
// from (Node itself when nothing was pre-split), bounding where the covering
// leaf can sit when a speculative Node overshoots the tree.
type piece struct {
	Node bitlabel.Label
	Base bitlabel.Label
	Q    spatial.Rect
}

// queryLCA is the prologue of every range query (Algorithm 2 lines 1–2): it
// validates q against the index's dimensionality and returns the lowest
// common ancestor of the range, whose corner cell receives the query first.
// A valid rectangle costs no allocation up to spatial.StackDims dimensions.
func queryLCA(q spatial.Rect, dims, maxDepth int) (bitlabel.Label, error) {
	if q.Dim() != dims {
		return bitlabel.Label{}, fmt.Errorf("%w: query has %d dims, index has %d", ErrDimension, q.Dim(), dims)
	}
	if err := q.Validate(); err != nil {
		return bitlabel.Label{}, fmt.Errorf("core: invalid query rectangle: %w", err)
	}
	return spatial.LCALabel(q, dims, maxDepth)
}

// step is the planner's answer for a bucket b fetched as the corner cell of
// node β with (clipped) subrange q: the records of b that match, and the
// pieces the rest of q is forwarded to — Algorithm 3's decomposition, each
// branch pre-split into up to h pieces when h > 1. Records of different
// pieces never overlap, so the engine may resolve the pieces in any order or
// all at once. The pieces' subranges are cut from shared blocks of
// coordinates: one block when h = 1.
func step(b Bucket, beta bitlabel.Label, q spatial.Rect, h, dims, maxDepth int, shape spatial.Shape) (match, []piece, error) {
	slab := rectSlab{dims: dims}
	pieces, meets, err := decompose(b.Label, beta, q, dims, shape, &slab)
	if err != nil {
		return match{}, nil, err
	}
	if h > 1 {
		var split []piece
		for _, p := range pieces {
			split = append(split, speculate(p.Node, p.Q, h, dims, maxDepth, shape, &slab)...)
		}
		pieces = split
	}
	if !meets {
		// b, the leaf named to β, lies outside q — about two corner buckets
		// in five on engine-local — and its bytes are not read.
		return match{}, pieces, nil
	}
	return filterRecords(b, q, shape), pieces, nil
}

// tile is the first round of a range with LCA lca planned from what a client
// knows of the tree instead of from the LCA's corner cell: lca must be known
// internal, and the walk descends from it through every child internal
// reports, down to the children it does not — a leaf the client knows, or a
// label it knows nothing of. Each of those whose cell meets q (and the shape)
// becomes a piece with base lca, so a piece whose node the tree no longer
// holds is recovered by the cover candidates up to lca. On an unchanged tree
// whose leaves under q are all known the pieces are exactly those leaves: one
// round, one probe a leaf. The pieces tile q, shape-pruned as decompose
// prunes.
//
// The walk narrows lca's cell in place to each child's half and widens it
// back after. A child's cell clipped to q is, to the bit, the child's cell
// clipped to its parent's clipped subrange (max and min associate), so every
// level clips q itself.
func tile(lca bitlabel.Label, q spatial.Rect, dims int, shape spatial.Shape, internal func(bitlabel.Label) bool) []piece {
	var s spatial.Scratch
	cell, err := s.Cell(lca, dims)
	if err != nil || lca.Len() <= dims {
		return nil // no node of the tree
	}
	slab := rectSlab{dims: dims}
	var pieces []piece
	var walk func(node bitlabel.Label)
	walk = func(node bitlabel.Label) {
		dim := spatial.SplitDim(node.Len()-(dims+1), dims)
		lo, hi := cell.Lo[dim], cell.Hi[dim]
		for _, bit := range []byte{0, 1} {
			child := node.MustAppend(bit)
			cell.Halve(dim, bit)
			if sub, ok := slab.meet(cell, q, shape, 4); ok {
				if internal(child) {
					walk(child)
				} else {
					pieces = append(pieces, piece{Node: child, Base: lca, Q: sub})
				}
			}
			cell.Lo[dim], cell.Hi[dim] = lo, hi
		}
	}
	walk(lca)
	return pieces
}

// decompose forwards what leaf's own cell does not cover of q to the branch
// nodes of leaf's local tree strictly below β (Algorithm 3), one piece per
// branch whose cell meets q; with a shape, subtrees whose cells provably
// miss it are pruned. The pieces are pairwise disjoint and, together with
// leaf's cell, tile q.
//
// The local tree follows from leaf's label alone (§3.3): the branch node one
// level below a path node is the half of the path node's cell that the leaf
// is not in. So one walk down leaf's path, halving one scratch cell in place,
// meets every branch in order, shallowest first, and their subranges come
// from the slab. A branch's cell shares its face with the path to the leaf,
// to the bit, so when leaf's cell covers q no branch meets it and there are
// no pieces. The walk ends on leaf's own cell: meets reports whether q meets
// it, since when it does not the leaf holds no record inside q.
func decompose(leaf, beta bitlabel.Label, q spatial.Rect, dims int, shape spatial.Shape, slab *rectSlab) (pieces []piece, meets bool, err error) {
	root := bitlabel.Root(dims)
	if !root.IsPrefixOf(leaf) || beta.Len() < root.Len() {
		return nil, false, fmt.Errorf("core: no local tree of %v below %v for %d dims", leaf, beta, dims)
	}
	below := beta.IsPrefixOf(leaf) // else no branch node lies below β
	var s spatial.Scratch
	cell := s.Cube(dims)
	for i := root.Len(); i < leaf.Len(); i++ {
		dim, bit := spatial.SplitDim(i-root.Len(), dims), leaf.At(i)
		if below && i >= beta.Len() {
			lo, hi := cell.Lo[dim], cell.Hi[dim]
			cell.Halve(dim, 1-bit)
			if sub, ok := slab.meet(cell, q, shape, leaf.Len()-i); ok {
				if pieces == nil {
					pieces = make([]piece, 0, leaf.Len()-i)
				}
				branch := leaf.Prefix(i + 1).Sibling()
				pieces = append(pieces, piece{Node: branch, Base: branch, Q: sub})
			}
			cell.Lo[dim], cell.Hi[dim] = lo, hi
		}
		cell.Halve(dim, bit)
	}
	return pieces, cell.Overlaps(q), nil
}

// speculate pre-splits subrange q below node β into up to h pieces by
// descending the deterministic space partitioning breadth-first — no DHT
// traffic is needed because every peer knows the global partitioning rule
// (§3.2). The pieces tile q (minus what the shape prunes). A node's children
// are the two halves of its cell, computed once in a scratch cell.
func speculate(beta bitlabel.Label, q spatial.Rect, h, dims, maxDepth int, shape spatial.Shape, slab *rectSlab) []piece {
	queue := []piece{{Node: beta, Base: beta, Q: q}}
	var done []piece
	var s spatial.Scratch
	guard := 0
	for len(queue) > 0 && len(queue)+len(done) < h && guard < 64*h {
		guard++
		p := queue[0]
		queue = queue[1:]
		if p.Node.Len() >= dims+1+maxDepth || p.Node.Len() >= bitlabel.MaxLen {
			done = append(done, p)
			continue
		}
		expanded := false
		if cell, err := s.Cell(p.Node, dims); err == nil && p.Node.Len() > dims {
			dim := spatial.SplitDim(p.Node.Len()-(dims+1), dims)
			lo, hi := cell.Lo[dim], cell.Hi[dim]
			for _, bit := range []byte{0, 1} {
				cell.Halve(dim, bit)
				if sub, ok := slab.meet(cell, p.Q, shape, 2*h); ok {
					queue = append(queue, piece{Node: p.Node.MustAppend(bit), Base: beta, Q: sub})
					expanded = true
				}
				cell.Lo[dim], cell.Hi[dim] = lo, hi
			}
		}
		if !expanded {
			done = append(done, p)
		}
	}
	return append(done, queue...)
}

// rectSlab hands out a plan's clipped subranges from shared blocks of
// coordinates.
type rectSlab struct {
	dims  int
	block []float64 // block[:used] is handed out
	used  int
}

// meet returns g ∩ q — Region.Intersect's rectangle, to the bit — in slab
// storage when g overlaps q and the shape, if any, may meet the intersection;
// ok is false otherwise, and the storage goes back to the slab. A spent block
// is replaced by one with room for n rectangles, or for twice its own.
func (s *rectSlab) meet(g spatial.Region, q spatial.Rect, shape spatial.Shape, n int) (spatial.Rect, bool) {
	if !g.Overlaps(q) {
		return spatial.Rect{}, false
	}
	d := s.dims
	if s.used+2*d > len(s.block) {
		s.block, s.used = make([]float64, 2*d*max(n, len(s.block)/d, 1)), 0
	}
	lo := s.block[s.used : s.used+d : s.used+d]
	hi := s.block[s.used+d : s.used+2*d : s.used+2*d]
	for i := range lo {
		lo[i] = math.Max(q.Lo[i], g.Lo[i])
		hi[i] = math.Min(q.Hi[i], g.Hi[i])
	}
	sub := spatial.Rect{Lo: lo, Hi: hi}
	if shape != nil && !shape.IntersectsRect(sub) {
		return spatial.Rect{}, false // the shape provably misses this subtree
	}
	s.used += 2 * d
	return sub, true
}

// coverCandidates returns the DHT names to probe when a speculative piece
// overshoots the tree: the covering leaf is one of the labels between the
// piece's base (inclusive) and its node (exclusive), deepest first. Names
// of nested prefixes can coincide, so probes are deduplicated; the name
// that already missed is excluded.
func coverCandidates(p piece, dims int) []bitlabel.Label {
	probed := map[bitlabel.Label]bool{bitlabel.Name(p.Node, dims): true} // already missed
	var names []bitlabel.Label
	for j := p.Node.Len() - 1; j >= p.Base.Len(); j-- {
		name := bitlabel.Name(p.Node.Prefix(j), dims)
		if probed[name] {
			continue
		}
		probed[name] = true
		names = append(names, name)
	}
	return names
}

// filterRecords finds the bucket's records inside q, in bucket order, in one
// pass (within) that notes the hits on the stack. What it returns is where
// they lie, and the shape, when one is given, that they must lie in too — not
// the records: a query's answer copies every hit's key into one block, and
// its records into one slice, once it knows about how many there are
// (execNode.collect, match.records), and asks the shape about the copies. A
// bucket of up to 128 records allocates nothing without a hit, and the list
// of its hits with them.
func filterRecords(b Bucket, q spatial.Rect, shape spatial.Shape) match {
	var buf [128]int32
	hits := b.within(q, buf[:0])
	if len(hits) == 0 {
		return match{}
	}
	return match{enc: b.enc, at: append([]int32(nil), hits...), shape: shape}
}

// clampPoint nudges a rectangle corner into the unit cube's valid key
// domain.
func clampPoint(p spatial.Point) spatial.Point {
	out := p.Clone()
	for i, c := range out {
		if c < 0 {
			out[i] = 0
		}
		if c > 1 {
			out[i] = 1
		}
	}
	return out
}
