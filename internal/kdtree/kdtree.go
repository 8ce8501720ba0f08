// Package kdtree implements the space kd-tree of m-LIGHT §3.2 — recursive
// bisection of the unit cube along dimensions 0,1,…,m-1 cyclically — plus
// the two index splitting strategies of §4:
//
//   - threshold splitting: a leaf holding more than θsplit records divides
//     at its spatial midpoint (SplitOnce), recursively until every leaf is
//     within threshold (ThresholdSplit);
//   - data-aware splitting: Algorithm 1 (OptimalSplit) computes the split
//     subtree that minimises Σ(load-ε)² over its leaves, the strategy
//     Theorem 6 proves optimal for peer load balance.
//
// Every split works in place. It owns the cell's Records and permutes them:
// each level is one stable partition (PartitionRecords) that moves a half's
// records within that one slice, through a scratch buffer a top-level split
// allocates once. Each leaf's Records is a capacity-clipped view of the
// slice holding the leaf's records in input order, so an append to a leaf
// reallocates instead of writing into its neighbour. A cell returned whole
// is the input cell itself, its records untouched.
//
// The package also provides Tree, an in-memory global space kd-tree. The
// distributed index never materialises this structure — it exists as the
// reference model ("what the paper's Figure 1 draws") and as the oracle in
// integration tests: the union of a distributed index's leaf buckets must
// equal the reference tree's leaves.
package kdtree

import (
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// Cell is one leaf of a (sub)tree: an absolute kd-tree label, its region,
// and the records that fall in it.
type Cell struct {
	Label   bitlabel.Label
	Region  spatial.Region
	Records []spatial.Record
}

// Load returns the number of records in the cell.
func (c Cell) Load() int { return len(c.Records) }

// PartitionRecords splits records between the two halves of region g along
// dim, in place and stably: the lower records move to the front of records
// and the upper ones follow, each side in input order. scratch holds the
// upper records meanwhile and must be at least as long as records. Records
// on the midpoint boundary go to the upper half, matching the half-open
// region convention. The halves are capacity-clipped views of records, so an
// append to one reallocates instead of overwriting the other.
func PartitionRecords(records, scratch []spatial.Record, g spatial.Region, dim int) (lower, upper []spatial.Record) {
	mid := (g.Lo[dim] + g.Hi[dim]) / 2
	scratch = scratch[:len(records)]
	i, k := 0, 0
	for _, r := range records {
		if r.Key[dim] < mid {
			records[i] = r
			i++
		} else {
			scratch[k] = r
			k++
		}
	}
	copy(records[i:], scratch[:k])
	n := len(records)
	return records[:i:i], records[i:n:n]
}

// SplitOnce divides a leaf cell into its two children along the dimension
// its depth dictates. It fails if the label cannot grow. Like every split it
// owns c.Records: the children's records are views of that slice.
func SplitOnce(c Cell, m int) (left, right Cell, err error) {
	if c.Label.Len() >= bitlabel.MaxLen {
		return Cell{}, Cell{}, fmt.Errorf("kdtree: cell %v at maximum depth: %w", c.Label, bitlabel.ErrTooLong)
	}
	left, right = newSplitter(c, m).split(c)
	return left, right, nil
}

// ThresholdSplit recursively divides the cell until every resulting leaf
// holds at most thetaSplit records or maxDepth additional levels have been
// used (overfull leaves at the depth limit are returned as-is, the standard
// escape for duplicate-heavy data). The input cell must be over threshold;
// callers check that, so a within-threshold cell is returned unchanged.
//
// The split owns c.Records and permutes them (see the package comment): the
// leaves, in depth-first order, are clipped views of that slice.
func ThresholdSplit(c Cell, m, thetaSplit, maxDepth int) ([]Cell, error) {
	if thetaSplit < 1 {
		return nil, fmt.Errorf("kdtree: thetaSplit must be positive, got %d", thetaSplit)
	}
	if !splits(c.Label, c.Load(), thetaSplit, maxDepth) {
		return []Cell{c}, nil
	}
	return newSplitter(c, m).carve(c, func(leaf Cell) bool {
		return !splits(leaf.Label, leaf.Load(), thetaSplit, maxDepth-(leaf.Label.Len()-c.Label.Len()))
	}, nil), nil
}

// OptimalSplit is Algorithm 1 (local-split) of the paper: it computes the
// virtual subtree rooted at the cell that minimises the total squared
// deviation Σ (load(leaf) - ε)² over its leaves, recursing while a cell
// holds more than ε records (and depth remains). It returns the leaves of
// the optimal subtree and whether splitting strictly improves on keeping
// the bucket whole; when improved is false the returned slice is the input
// cell alone.
//
// The split owns c.Records as ThresholdSplit does, and permutes them only
// when it improves. It explores on a copy, so a subtree the algorithm keeps
// whole leaves no trace, and then carves the chosen leaves out of c.Records.
func OptimalSplit(c Cell, m, epsilon, maxDepth int) (leaves []Cell, improved bool, err error) {
	if epsilon < 1 {
		return nil, false, fmt.Errorf("kdtree: epsilon must be positive, got %d", epsilon)
	}
	if !splits(c.Label, c.Load(), epsilon, maxDepth) {
		return []Cell{c}, false, nil
	}
	s := newSplitter(c, m)
	explore := c
	explore.Records = append([]spatial.Record(nil), c.Records...)
	cost, shape := s.optimal(explore, epsilon, maxDepth, nil)
	if localCost(c.Load(), epsilon) <= cost {
		// Keeping the bucket whole is at least as good: no split (the
		// comparison in Algorithm 1 line 8 keeps s_local on ties).
		return []Cell{c}, false, nil
	}
	return s.carve(c, func(leaf Cell) bool {
		if leaf.Label != shape[0] {
			return false
		}
		shape = shape[1:]
		return true
	}, nil), true, nil
}

// localCost is (l-ε)² in exact integer arithmetic.
func localCost(load, epsilon int) int64 {
	d := int64(load - epsilon)
	return d * d
}

// splits reports whether a cell at label holding load records divides
// further: it is over bound and may still grow levels more, label included.
func splits(label bitlabel.Label, load, bound, levels int) bool {
	return load > bound && levels > 0 && label.Len() < bitlabel.MaxLen
}

// splitter is one top-level split's working state: the scratch buffer every
// partition of the split shares.
type splitter struct {
	m       int
	scratch []spatial.Record
}

func newSplitter(c Cell, m int) splitter {
	return splitter{m: m, scratch: make([]spatial.Record, len(c.Records))}
}

// split divides c into its two children along the dimension its depth
// dictates, partitioning c.Records in place.
func (s splitter) split(c Cell) (left, right Cell) {
	dim := spatial.SplitDim(c.Label.Len()-(s.m+1), s.m)
	lowRegion, highRegion := c.Region.Halves(dim)
	lowRecs, highRecs := PartitionRecords(c.Records, s.scratch, c.Region, dim)
	left = Cell{Label: c.Label.MustAppend(0), Region: lowRegion, Records: lowRecs}
	right = Cell{Label: c.Label.MustAppend(1), Region: highRegion, Records: highRecs}
	return left, right
}

// carve divides c until leaf reports a cell to be a leaf, and appends the
// leaves to out in depth-first order.
func (s splitter) carve(c Cell, leaf func(Cell) bool, out []Cell) []Cell {
	if leaf(c) {
		return append(out, c)
	}
	left, right := s.split(c)
	out = s.carve(left, leaf, out)
	return s.carve(right, leaf, out)
}

// optimal returns the minimal cost achievable for the cell and appends the
// labels of the leaves realising it — the cell itself when not splitting
// wins — to shape in depth-first order. It permutes c.Records.
func (s splitter) optimal(c Cell, epsilon, levels int, shape []bitlabel.Label) (int64, []bitlabel.Label) {
	slocal := localCost(c.Load(), epsilon)
	if !splits(c.Label, c.Load(), epsilon, levels) {
		return slocal, append(shape, c.Label)
	}
	start := len(shape)
	left, right := s.split(c)
	var lcost, rcost int64
	lcost, shape = s.optimal(left, epsilon, levels-1, shape)
	rcost, shape = s.optimal(right, epsilon, levels-1, shape)
	if snonlocal := lcost + rcost; snonlocal < slocal {
		return snonlocal, shape
	}
	return slocal, append(shape[:start], c.Label)
}
