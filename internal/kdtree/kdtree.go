// Package kdtree implements the space kd-tree of m-LIGHT §3.2 — recursive
// bisection of the unit cube along dimensions 0,1,…,m-1 cyclically — plus
// the two index splitting strategies of §4:
//
//   - threshold splitting: a leaf holding more than θsplit records divides
//     at its spatial midpoint (SplitOnce), recursively until every leaf is
//     within threshold (Threshold);
//   - data-aware splitting: Algorithm 1 (Optimal) computes the split
//     subtree that minimises Σ(load-ε)² over its leaves, the strategy
//     Theorem 6 proves optimal for peer load balance.
//
// Every split reads the records once and never writes them. Bisecting along
// the dimensions in turn makes a cell below the split's cell exactly the
// records whose z-order key starts with the cell's label bits, where bit t of
// a record's key is the split's own test at depth t, Key[dim] ≥ mid (zkeys).
// So a split computes each record's key, sorts the keys stably with their
// input positions (a radix sort over only the bits its depth bound allows),
// and finds every cell it meets as a run of the sorted keys: its load is the
// run's length and its halves a binary search on one bit. One counting pass
// in input order then names each leaf's records by position (a Frontier),
// in input order within the leaf. Frontier.Cells places the records into one
// fresh slice, leaf after leaf: each leaf's Records is a capacity-clipped
// view of it, so an append to a leaf reallocates instead of writing into its
// neighbour. A cell kept whole is the input cell itself.
//
// The package also provides Tree, an in-memory global space kd-tree. The
// distributed index never materialises this structure — it exists as the
// reference model ("what the paper's Figure 1 draws") and as the oracle in
// integration tests: the union of a distributed index's leaf buckets must
// equal the reference tree's leaves.
package kdtree

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

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

// Frontier is the leaves a split chose for a cell, in depth-first order:
// each leaf's label and region (Leaves, whose Records are nil) and which of
// the cell's records it holds. A frontier of one leaf is the cell kept whole.
// A split reads the cell's records and never writes them: Cells places them,
// and Members names them by position for a caller that builds its own
// buckets from them.
type Frontier struct {
	Leaves  []Cell
	cell    Cell
	members [][]int32 // nil when the cell is kept whole
}

// whole is the frontier that keeps c whole.
func whole(c Cell) Frontier {
	return Frontier{Leaves: []Cell{{Label: c.Label, Region: c.Region}}, cell: c}
}

// Members returns the positions in the split cell's Records of the records
// leaf i holds, ascending.
func (f Frontier) Members(i int) []int32 {
	if f.members == nil {
		all := make([]int32, f.cell.Load())
		for j := range all {
			all[j] = int32(j)
		}
		return all
	}
	return f.members[i]
}

// Cells returns the leaves with their records: one fresh slice holds every
// record, leaf after leaf and in input order within a leaf, and each leaf's
// Records is a capacity-clipped view of its part, so an append to a leaf
// reallocates instead of writing into its neighbour. A cell kept whole is
// returned as it came, records untouched.
func (f Frontier) Cells() []Cell {
	if f.members == nil {
		return []Cell{f.cell}
	}
	recs := make([]spatial.Record, 0, f.cell.Load())
	out := make([]Cell, len(f.Leaves))
	for i, leaf := range f.Leaves {
		start := len(recs)
		for _, j := range f.members[i] {
			recs = append(recs, f.cell.Records[j])
		}
		leaf.Records = recs[start:len(recs):len(recs)]
		out[i] = leaf
	}
	return out
}

// SplitOnce divides a leaf cell into its two children along the dimension
// its depth dictates. It fails if the label cannot grow. Records on the
// midpoint go to the upper child, matching the half-open region convention.
func SplitOnce(c Cell, m int) (left, right Cell, err error) {
	if c.Label.Len() >= bitlabel.MaxLen {
		return Cell{}, Cell{}, fmt.Errorf("kdtree: cell %v at maximum depth: %w", c.Label, bitlabel.ErrTooLong)
	}
	z := sortByKey(c, m, 1)
	n := c.Load()
	mid := z.half(0, n, 0)
	cells := z.frontier([]run{{c.Label.MustAppend(0), 0, mid}, {c.Label.MustAppend(1), mid, n}}).Cells()
	return cells[0], cells[1], nil
}

// Threshold recursively divides the cell until every resulting leaf holds
// at most thetaSplit records or maxDepth additional levels have been used
// (overfull leaves at the depth limit are kept as they are, the standard
// escape for duplicate-heavy data). A cell within threshold is kept whole.
func Threshold(c Cell, m, thetaSplit, maxDepth int) (Frontier, error) {
	if thetaSplit < 1 {
		return Frontier{}, fmt.Errorf("kdtree: thetaSplit must be positive, got %d", thetaSplit)
	}
	if !splits(c.Label, c.Load(), thetaSplit, maxDepth) {
		return whole(c), nil
	}
	z := sortByKey(c, m, maxDepth)
	return z.frontier(z.threshold(c.Label, 0, c.Load(), thetaSplit, nil)), nil
}

// Optimal is Algorithm 1 (local-split) of the paper: it computes the
// virtual subtree rooted at the cell that minimises the total squared
// deviation Σ (load(leaf) - ε)² over its leaves, recursing while a cell
// holds more than ε records (and depth remains). It returns the leaves of
// the optimal subtree and whether splitting strictly improves on keeping
// the bucket whole; when improved is false the cell is kept whole. Every
// subtree's load is a run length of the sorted keys, so the exploration
// moves no record.
func Optimal(c Cell, m, epsilon, maxDepth int) (f Frontier, improved bool, err error) {
	if epsilon < 1 {
		return Frontier{}, false, fmt.Errorf("kdtree: epsilon must be positive, got %d", epsilon)
	}
	if !splits(c.Label, c.Load(), epsilon, maxDepth) {
		return whole(c), false, nil
	}
	z := sortByKey(c, m, maxDepth)
	cost, runs := z.optimal(c.Label, 0, c.Load(), epsilon, nil)
	if localCost(c.Load(), epsilon) <= cost {
		// Keeping the bucket whole is at least as good: no split (the
		// comparison in Algorithm 1 line 8 keeps s_local on ties).
		return whole(c), false, nil
	}
	return z.frontier(runs), true, nil
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

// sorted is one split's records seen through their z-order keys below the
// split's cell c: keys ascending, and with each its record's position in
// c.Records. The sort is stable, so within a run of equal keys the positions
// ascend.
type sorted struct {
	c      Cell
	m      int
	levels int      // the key bits: levels the split may descend below c
	keys   []uint64 // bit levels-1-t is the record's test at depth t
	order  []int32
	spare  []int32 // as long as order, for frontier
}

// run is one cell of a split: its label and its records' run [start, end)
// of the sorted keys.
type run struct {
	label      bitlabel.Label
	start, end int
}

// sortByKey computes the key of every record of c over the levels the split
// may descend — at most maxDepth, and no label past MaxLen — and sorts them.
func sortByKey(c Cell, m, maxDepth int) sorted {
	n := c.Load()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("kdtree: a split of %d records", n))
	}
	levels := max(0, min(maxDepth, bitlabel.MaxLen-c.Label.Len()))
	keys := make([]uint64, 2*n)
	order := make([]int32, 2*n)
	zkeys(c, m, levels, keys[:n])
	for i := range n {
		order[i] = int32(i)
	}
	z := sorted{c: c, m: m, levels: levels}
	z.keys, z.order, z.spare = radixSort(keys[:n], keys[n:], order[:n], order[n:], levels)
	return z
}

// half returns where the run [s, e) of a cell at depth t below c divides:
// its keys share their first t bits, so the records of the upper child, bit
// t set, follow those of the lower.
func (z sorted) half(s, e, t int) int {
	bit := uint64(1) << (z.levels - 1 - t)
	return s + sort.Search(e-s, func(i int) bool { return z.keys[s+i]&bit != 0 })
}

// threshold appends to out, depth first, the leaves of the cell at label
// holding the run [s, e) under threshold splitting.
func (z sorted) threshold(label bitlabel.Label, s, e, bound int, out []run) []run {
	t := label.Len() - z.c.Label.Len()
	if e-s <= bound || t >= z.levels {
		return append(out, run{label, s, e})
	}
	mid := z.half(s, e, t)
	out = z.threshold(label.MustAppend(0), s, mid, bound, out)
	return z.threshold(label.MustAppend(1), mid, e, bound, out)
}

// optimal returns the minimal cost achievable for the cell at label holding
// the run [s, e), and appends to out the leaves realising it — the cell
// itself when not splitting wins — in depth-first order.
func (z sorted) optimal(label bitlabel.Label, s, e, epsilon int, out []run) (int64, []run) {
	slocal := localCost(e-s, epsilon)
	t := label.Len() - z.c.Label.Len()
	if e-s <= epsilon || t >= z.levels {
		return slocal, append(out, run{label, s, e})
	}
	start := len(out)
	mid := z.half(s, e, t)
	var lcost, rcost int64
	lcost, out = z.optimal(label.MustAppend(0), s, mid, epsilon, out)
	rcost, out = z.optimal(label.MustAppend(1), mid, e, epsilon, out)
	if snonlocal := lcost + rcost; snonlocal < slocal {
		return snonlocal, out
	}
	return slocal, append(out[:start], run{label, s, e})
}

// frontier names the records of each leaf: one counting pass in input order
// writes every record's position into its leaf's part of one slice, so each
// leaf's members ascend. Each leaf's region is c's halved along its label,
// all regions in one block.
func (z sorted) frontier(runs []run) Frontier {
	leaf, next := z.spare, make([]int, len(runs))
	for l, r := range runs {
		for _, i := range z.order[r.start:r.end] {
			leaf[i] = int32(l)
		}
		next[l] = r.start
	}
	members := z.order // read out above: reused
	for i, l := range leaf {
		members[next[l]] = int32(i)
		next[l]++
	}
	d := len(z.c.Region.Lo)
	bounds := make([]float64, 2*d*len(runs))
	f := Frontier{Leaves: make([]Cell, len(runs)), cell: z.c, members: make([][]int32, len(runs))}
	for i, r := range runs {
		lo, hi := bounds[2*d*i:][:d:d], bounds[2*d*i+d:][:d:d]
		copy(lo, z.c.Region.Lo)
		copy(hi, z.c.Region.Hi)
		g := spatial.Region{Lo: lo, Hi: hi}
		for j := z.c.Label.Len(); j < r.label.Len(); j++ {
			g.Halve(spatial.SplitDim(j-(z.m+1), z.m), r.label.At(j))
		}
		f.Leaves[i] = Cell{Label: r.label, Region: g}
		f.members[i] = members[r.start:r.end:r.end]
	}
	return f
}

// zkeys writes into keys, for each record of c, its z-order key over levels
// levels below c: bit levels-1-t is 1 when the record goes to the upper half
// at depth t, as the split's test Key[dim] < mid decides it for the midpoint
// of the cell the record has reached. Each coordinate's tests along its
// dimension are read off it at once (axis.bits), then spread into the key m
// bits apart: halves of them, then quarters, … move up in turn, masks[j]
// keeping blocks of 2^j bits every 2^j·m, so that bit i lands at bit i·m.
func zkeys(c Cell, m, levels int, keys []uint64) {
	depth := c.Label.Len() - (m + 1)
	axes := make([]axis, m)
	for t := range levels {
		a := &axes[spatial.SplitDim(depth+t, m)]
		a.levels++
		a.last = levels - 1 - t
	}
	widest := 0
	for d := range axes {
		if axes[d].levels > 0 {
			axes[d].init(c.Region.Lo[d], c.Region.Hi[d])
			widest = max(widest, axes[d].levels)
		}
	}
	var masks [6]uint64
	steps := bits.Len(uint(max(widest-1, 0)))
	for j := range steps {
		for p := range 64 {
			if p%(m<<j) < 1<<j {
				masks[j] |= 1 << p
			}
		}
	}
	for i, r := range c.Records {
		var key uint64
		for d := range axes {
			if a := &axes[d]; a.levels > 0 {
				q := a.bits(r.Key[d])
				for j := steps - 1; j >= 0; j-- {
					q = (q | q<<((m-1)<<j)) & masks[j]
				}
				key |= q << a.last
			}
		}
		keys[i] = key
	}
}

// axis is one dimension of a split's cell: the split's tests along it and
// how many of them, from the first, a quantised coordinate answers.
type axis struct {
	levels int     // tests along the dimension
	last   int     // the key bit of the last of them
	exact  int     // of them, those whose midpoints are exact in float64
	lo, hi float64 // the cell's extent
	scale  float64 // 2^exact / (hi-lo)
	step   float64 // (hi-lo) / 2^exact: the width of a cell after them
}

// init sets the axis up for the cell's extent [lo, hi]. While hi-lo is a
// power of two, lo a multiple of it and no midpoint finer than float64
// resolves, every midpoint of the descent is a dyadic number the halving
// computes exactly, so a coordinate's first exact tests are the bits of
// floor((x-lo)·2^exact/(hi-lo)). An extent that is no such cell — or the
// levels past the resolution, for m = 1 beyond about 52 — is left to the
// midpoint comparisons themselves.
func (a *axis) init(lo, hi float64) {
	a.lo, a.hi = lo, hi
	w := hi - lo
	fw, ew := math.Frexp(w)
	_, eh := math.Frexp(hi)
	if !(lo >= 0 && w > 0) || lo+w != hi || fw != 0.5 || math.Mod(lo, w) != 0 {
		return
	}
	// A midpoint after j halvings is a multiple of w/2^j = 2^(ew-1-j) below
	// hi < 2^eh: exact while that takes at most 53 bits.
	a.exact = min(a.levels, max(0, 52-eh+ew))
	a.scale = math.Ldexp(1, a.exact-(ew-1))
	a.step = math.Ldexp(1, ew-1-a.exact)
}

// bits returns the axis's tests for coordinate x, the first in the top bit
// of the low a.levels bits. A coordinate below the cell fails every test, and
// one at or above its top — or NaN, which compares false — passes every one,
// as the comparisons decide them.
func (a *axis) bits(x float64) uint64 {
	var q uint64
	switch {
	case x < a.lo:
	case x < a.hi:
		q = uint64((x - a.lo) * a.scale)
	default:
		q = 1<<a.exact - 1
	}
	if a.exact == a.levels {
		return q
	}
	lo, hi := a.lo, a.hi
	if a.exact > 0 {
		lo = a.lo + float64(q)*a.step
		hi = lo + a.step
	}
	for range a.levels - a.exact {
		q <<= 1
		if mid := (lo + hi) / 2; x < mid {
			hi = mid
		} else {
			lo = mid
			q |= 1
		}
	}
	return q
}

// radixSort sorts keys, carrying order along, by a stable LSD radix sort
// over their low bits, a byte a pass; a pass whose byte is the same in every
// key moves nothing and is skipped. tk and to are scratch as long as keys.
// It returns the sorted slices — keys and order, or tk and to — and the
// order buffer it left spare.
func radixSort(keys, tk []uint64, order, to []int32, bits int) ([]uint64, []int32, []int32) {
	if len(keys) == 0 {
		return keys, order, to
	}
	var count [8][256]int
	passes := (bits + 7) / 8
	for _, k := range keys {
		for p := range passes {
			count[p][byte(k>>(8*p))]++
		}
	}
	for p := range passes {
		c := &count[p]
		shift := 8 * p
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for i, k := range keys {
			d := byte(k >> shift)
			tk[c[d]], to[c[d]] = k, order[i]
			c[d]++
		}
		keys, tk, order, to = tk, keys, to, order
	}
	return keys, order, to
}
