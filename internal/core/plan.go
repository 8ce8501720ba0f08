package core

import (
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// This file is the range-query planner: every decision of §6 (Algorithms 2
// and 3 and the parallel pre-split) as pure functions of labels, rectangles
// and one fetched bucket. It issues no DHT operation, starts no goroutine and
// touches no counter or trace collector — every peer can evaluate it because
// every peer knows the space-partitioning rule (§3.2). Two drivers execute
// its plans: the client-driven round engine in range.go and the peer-executed
// forwarding of internal/peerquery.

// Piece is one (node, subrange) unit of forwarding: resolve Q against the
// subtree rooted at Node. Base is the real tree node the speculation started
// from (Node itself when nothing was pre-split), bounding where the covering
// leaf can sit when a speculative Node overshoots the tree.
type Piece struct {
	Node bitlabel.Label
	Base bitlabel.Label
	Q    spatial.Rect
}

// QueryLCA is the prologue every driver starts from (Algorithm 2 lines 1–2):
// it validates q against the index's dimensionality and returns the lowest
// common ancestor of the range, whose corner cell receives the query first.
func QueryLCA(q spatial.Rect, dims, maxDepth int) (bitlabel.Label, error) {
	if q.Dim() != dims {
		return bitlabel.Label{}, fmt.Errorf("%w: query has %d dims, index has %d", ErrDimension, q.Dim(), dims)
	}
	if _, err := spatial.NewRect(q.Lo, q.Hi); err != nil {
		return bitlabel.Label{}, fmt.Errorf("core: invalid query rectangle: %w", err)
	}
	return spatial.LCALabel(q, dims, maxDepth)
}

// Step is the planner's answer for a bucket b fetched as the corner cell of
// node β with (clipped) subrange q: the records of b that match, and the
// pieces the rest of q is forwarded to — Algorithm 3's decomposition, each
// branch pre-split into up to h pieces when h > 1. Records of different
// pieces never overlap, so a driver may resolve the pieces in any order or
// all at once.
func Step(b Bucket, beta bitlabel.Label, q spatial.Rect, h, dims, maxDepth int, shape spatial.Shape) ([]spatial.Record, []Piece, error) {
	pieces, err := decompose(b.Label, beta, q, dims, shape)
	if err != nil {
		return nil, nil, err
	}
	if h > 1 {
		var split []Piece
		for _, p := range pieces {
			split = append(split, speculate(p.Node, p.Q, h, dims, maxDepth, shape)...)
		}
		pieces = split
	}
	return filterRecords(b, q, shape), pieces, nil
}

// Tile is the first round of a range with LCA lca planned from what a client
// knows of the tree instead of from the LCA's corner cell: lca must be known
// internal, and the walk descends from it through every child internal
// reports, down to the children it does not — a leaf the client knows, or a
// label it knows nothing of. Each of those whose cell meets q (and the shape)
// becomes a piece with base lca, so a piece whose node the tree no longer
// holds is recovered by the cover candidates up to lca. On an unchanged tree
// whose leaves under q are all known the pieces are exactly those leaves: one
// round, one probe a leaf. The pieces tile q, shape-pruned as decompose
// prunes.
func Tile(lca bitlabel.Label, q spatial.Rect, dims int, shape spatial.Shape, internal func(bitlabel.Label) bool) []Piece {
	var pieces []Piece
	var walk func(node bitlabel.Label, q spatial.Rect)
	walk = func(node bitlabel.Label, q spatial.Rect) {
		for _, bit := range []byte{0, 1} {
			child := node.MustAppend(bit)
			g, err := spatial.RegionOf(child, dims)
			if err != nil {
				continue
			}
			sub, overlaps := g.Intersect(q)
			if !overlaps || shape != nil && !shape.IntersectsRect(sub) {
				continue
			}
			if internal(child) {
				walk(child, sub)
				continue
			}
			pieces = append(pieces, Piece{Node: child, Base: lca, Q: sub})
		}
	}
	walk(lca, q)
	return pieces
}

// decompose forwards what leaf's own cell does not cover of q to the branch
// nodes of leaf's local tree strictly below β (Algorithm 3), one piece per
// branch whose cell meets q; with a shape, subtrees whose cells provably
// miss it are pruned. The pieces are pairwise disjoint and, together with
// leaf's cell, tile q.
func decompose(leaf, beta bitlabel.Label, q spatial.Rect, dims int, shape spatial.Shape) ([]Piece, error) {
	leafRegion, err := spatial.RegionOf(leaf, dims)
	if err != nil {
		return nil, err
	}
	if leafRegion.Covers(q) {
		return nil, nil
	}
	local, err := bitlabel.NewLocalTree(leaf, dims)
	if err != nil {
		return nil, err
	}
	var pieces []Piece
	for _, branch := range local.BranchNodesBelow(beta) {
		g, err := spatial.RegionOf(branch, dims)
		if err != nil {
			return nil, err
		}
		sub, overlaps := g.Intersect(q)
		if !overlaps {
			continue
		}
		if shape != nil && !shape.IntersectsRect(sub) {
			continue // the shape provably misses this subtree
		}
		pieces = append(pieces, Piece{Node: branch, Base: branch, Q: sub})
	}
	return pieces, nil
}

// speculate pre-splits subrange q below node β into up to h pieces by
// descending the deterministic space partitioning breadth-first — no DHT
// traffic is needed because every peer knows the global partitioning rule
// (§3.2). The pieces tile q (minus what the shape prunes).
func speculate(beta bitlabel.Label, q spatial.Rect, h, dims, maxDepth int, shape spatial.Shape) []Piece {
	queue := []Piece{{Node: beta, Base: beta, Q: q}}
	var done []Piece
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
		for _, bit := range []byte{0, 1} {
			child := p.Node.MustAppend(bit)
			g, err := spatial.RegionOf(child, dims)
			if err != nil {
				continue
			}
			sub, overlaps := g.Intersect(p.Q)
			if !overlaps {
				continue
			}
			if shape != nil && !shape.IntersectsRect(sub) {
				continue
			}
			queue = append(queue, Piece{Node: child, Base: beta, Q: sub})
			expanded = true
		}
		if !expanded {
			done = append(done, p)
		}
	}
	return append(done, queue...)
}

// coverCandidates returns the DHT names to probe when a speculative piece
// overshoots the tree: the covering leaf is one of the labels between the
// piece's base (inclusive) and its node (exclusive), deepest first. Names
// of nested prefixes can coincide, so probes are deduplicated; the name
// that already missed is excluded.
func coverCandidates(p Piece, dims int) []bitlabel.Label {
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

// filterRecords returns the bucket's records inside q (and inside the
// shape, when one is given). The scan walks the bucket's columnar arenas
// directly — contiguous coordinate memory, no materialized record slice.
func filterRecords(b Bucket, q spatial.Rect, shape spatial.Shape) []spatial.Record {
	var out []spatial.Record
	for i, n := 0, b.Load(); i < n; i++ {
		key := b.KeyAt(i)
		if !q.Contains(key) {
			continue
		}
		if shape != nil && !shape.ContainsPoint(key) {
			continue
		}
		out = append(out, b.RecordAt(i))
	}
	return out
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
