package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"mlight/internal/bitlabel"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// This file is the maintenance transform, the write-side twin of plan.go:
// every decision of §4 — append to the covering leaf, and if it splits keep
// exactly the piece that is named to the old key (Theorem 5) — as pure
// functions of one stored bucket and the records. Stored buckets are leaves
// and leaves partition the space, so a stored bucket whose cell covers a
// record is that record's leaf, whichever label the sender believed it had.
// It issues no DHT operation and touches no counter, cache or lock, so the
// owner of a key can evaluate it as well as a client can, and running it
// twice on the same input decides the same thing twice. Insert
// (maintenance.go) and InsertBatch (writer.go) are its two drivers.

// SplitRule is everything a peer needs to know to decide a split: the index's
// dimensionality and depth bound, the strategy, and the strategy's threshold.
type SplitRule struct {
	Dims       int
	MaxDepth   int
	Strategy   SplitStrategy
	ThetaSplit int
	Epsilon    int
}

// splitRule is the rule the index splits by.
func (ix *Index) splitRule() SplitRule {
	o := ix.opts
	return SplitRule{Dims: o.Dims, MaxDepth: o.MaxDepth, Strategy: o.Strategy, ThetaSplit: o.Capacity, Epsilon: o.Epsilon}
}

// Commit is what one Append decided. It carries no partial state: a transform
// that is run again starts from the stored bucket it is handed and returns a
// whole new Commit.
type Commit struct {
	// Keep is the bucket to store under the leaf's key: the stored bucket
	// with the accepted records appended, or after a split the one piece
	// named to that key. Meaningless when Err is set, and when Gone is set
	// only its label is: the stored value is then to be left as it is. Load
	// is its load: a Commit that an owner reported across a socket (ops.go)
	// carries Keep's label and this count, not its records — no driver reads
	// them.
	Keep Bucket
	Load int
	// Moved are the other pieces of the final frontier, each to be placed
	// under its own key.
	Moved []kdtree.Cell
	// Accepted counts the records the replay inserted; Stale lists, by
	// position in the records given, those the stored leaf's cell does not
	// cover.
	Accepted int
	Stale    []int
	// Gone reports that the stored bucket covers none of the records, or
	// that the key holds none: nothing was accepted, and Keep.Label is the
	// stored leaf's label — empty when the key holds nothing — which is all
	// a §5 probe of the key would have learnt.
	Gone bool
	// Splits and RecordsMoved are the maintenance the replay performed, as a
	// stream of single inserts would have been charged for it: one split per
	// piece that left its cell, and that piece's load at the moment it left.
	Splits       int64
	RecordsMoved int64
	// Err is a failure of the split machinery.
	Err error
	// Hop, on a gone commit, is the frozen piece of a move under way that
	// covers the first record (move.go): the writer installs it and goes on
	// at its target.
	Hop *hop
	// Gen is the kept bucket's merge count, which the moved pieces carry.
	Gen uint64
}

// Append replays records, in order, into the stored leaf bucket, if its cell
// covers any of them. Each record joins the frontier cell that covers it (the
// frontier starts as the leaf alone and always tiles the leaf's region) and
// may split that cell: the piece named to the cell's key takes its place, the
// rest join the frontier. Until the first record that crosses the split bound
// the bucket is only extended by the records' encodings — amortized O(1) per
// record, no record materialized; writing into spare capacity is safe
// because readers of the previous Bucket value never read past their own
// length (see columnar.go).
func (r SplitRule) Append(stored Bucket, records []spatial.Record) (c Commit) {
	leaf := stored.Label
	var s spatial.Scratch
	region, err := s.Cell(leaf, r.Dims)
	if err != nil || !coversAny(region, records) {
		return Commit{Keep: Bucket{Label: leaf}, Gone: true}
	}
	keep := stored // slot 0 as encodings, while it has not split
	if r.extends(region, leaf, stored.Load(), records) {
		for _, rec := range records {
			keep = keep.Append(rec)
		}
		return Commit{Keep: keep, Load: keep.Load(), Accepted: len(records)}
	}
	var frontier []kdtree.Cell // nil while no record has crossed the bound
	for i, rec := range records {
		slot := -1
		if frontier == nil && region.Contains(rec.Key) {
			next := keep.Append(rec)
			if r.underSplitBound(next.Load(), leaf) {
				keep = next
				c.Accepted++
				continue
			}
			// Records materializes a fresh slice, which the frontier's cells
			// grow by append (a split hands back clipped views).
			cell := spatial.Region{Lo: region.Lo.Clone(), Hi: region.Hi.Clone()}
			frontier, slot = []kdtree.Cell{{Label: leaf, Region: cell, Records: next.Records()}}, 0
		}
		for j := 0; slot < 0 && j < len(frontier); j++ {
			if frontier[j].Region.Contains(rec.Key) {
				frontier[j].Records = append(frontier[j].Records, rec)
				slot = j
			}
		}
		if slot < 0 {
			c.Stale = append(c.Stale, i)
			continue
		}
		stay, moved, err := r.split(frontier[slot])
		if err != nil {
			return Commit{Err: err}
		}
		c.Accepted++
		if len(moved) == 0 {
			if c.Splits == 0 {
				// Over the bound but whole (data-aware splitting found no
				// better subtree): still the stored bucket, extended.
				keep = keep.Append(rec)
			}
			continue
		}
		c.Splits += int64(len(moved))
		for _, p := range moved {
			c.RecordsMoved += int64(p.Load())
		}
		frontier[slot] = stay
		frontier = append(frontier, moved...)
	}
	if c.Splits > 0 {
		keep = NewBucket(frontier[0].Label, frontier[0].Records)
		c.Moved = frontier[1:]
	}
	c.Keep, c.Load = keep, keep.Load()
	return c
}

// leaf returns the stored leaf a commit that was not Gone landed in. A
// split's pieces tile it, so it is their longest common prefix.
func (c Commit) leaf() bitlabel.Label {
	leaf := c.Keep.Label
	for _, p := range c.Moved {
		leaf = leaf.CommonPrefix(p.Label)
	}
	return leaf
}

// extends reports whether records only extend the leaf's bucket: the leaf's
// cell covers every one of them and the bucket, load records now, stays under
// the split bound with all of them in. The bound is a ceiling on the load, so
// it then held after each record too, and the whole of Append is the stored
// bucket with the records appended.
func (r SplitRule) extends(region spatial.Region, leaf bitlabel.Label, load int, records []spatial.Record) bool {
	for _, rec := range records {
		if !region.Contains(rec.Key) {
			return false
		}
	}
	return r.underSplitBound(load+len(records), leaf)
}

// covers reports whether the cell of leaf covers key. A label that is no
// leaf of key's dimensionality — the empty label of a key that holds nothing
// among them — covers nothing. The cell is RegionOf's, built in a Scratch:
// no allocation up to spatial.StackDims dimensions.
//
//lint:hotpath
func covers(leaf bitlabel.Label, key spatial.Point) bool {
	var s spatial.Scratch
	region, err := s.Cell(leaf, key.Dim())
	return err == nil && region.Contains(key)
}

// coversAny reports whether region covers at least one of the records.
func coversAny(region spatial.Region, records []spatial.Record) bool {
	for _, rec := range records {
		if region.Contains(rec.Key) {
			return true
		}
	}
	return false
}

// Removal is what one Remove decided.
type Removal struct {
	// Keep is the bucket without the record, and Load its load; set only when
	// Removed. A Removal that an owner reported across a socket (ops.go)
	// carries Keep's records only when Load is under the index's θmerge, the
	// one case in which the driver reads them.
	Keep    Bucket
	Load    int
	Removed bool
	// Gone reports that the stored bucket does not cover the key, or that
	// the key holds none, as Commit.Gone does — Keep.Label is then the
	// stored leaf's label, empty for none. The record was not looked for,
	// which is not "it is not there".
	Gone bool
	// Hop, on a gone removal, is the frozen piece of a move under way that
	// covers the key, as Commit.Hop is.
	Hop *hop
}

// Remove takes one record matching key — its coordinates equal as float64s,
// not as bits — and data, when non-empty, out of the stored leaf bucket, if
// its cell covers key. The survivors are copied into a new slice (cut): an
// in-place shift would rewrite bytes concurrent readers share.
//
// A bucket in the middle of a move removes from what stays; a key that only a
// frozen piece covers gets a gone removal with the reported label and the
// piece's hop (move.go).
func Remove(stored Bucket, key spatial.Point, data string) Removal {
	if stored.tombstone() {
		return Removal{Gone: true}
	}
	if stored.mark() != nil && (stored.mark().retire || !covers(stored.Label, key)) {
		out := Removal{Keep: Bucket{Label: stored.reported()}, Gone: true}
		if h, ok := stored.hopFor(key); ok {
			out.Hop = &h
		}
		return out
	}
	out, lo, hi := remove(stored, key, data)
	if out.Removed {
		out.Keep = stored.cut(lo, hi)
	}
	return out
}

// remove is Remove's decision, Keep's label alone, and where the record it
// takes out lies in stored's encodings.
func remove(stored Bucket, key spatial.Point, data string) (out Removal, lo, hi int) {
	leaf := stored.Label
	if !covers(leaf, key) {
		return Removal{Keep: Bucket{Label: leaf}, Gone: true}, 0, 0
	}
	d := len(key)
	if stored.n == 0 || stored.dims() != d {
		return Removal{}, 0, 0
	}
next:
	for lo = 0; lo < len(stored.enc); lo = hi {
		k, p, end := fields(stored.enc, lo, d)
		hi = end
		for j, c := range key {
			if math.Float64frombits(binary.LittleEndian.Uint64(stored.enc[k+8*j:])) != c {
				continue next
			}
		}
		if data == "" || string(stored.enc[p:hi]) == data {
			return Removal{Keep: Bucket{Label: leaf}, Load: stored.n - 1, Removed: true}, lo, hi
		}
	}
	return Removal{}, 0, 0
}

// remainingDepth returns how many more levels a leaf at label may split.
func (r SplitRule) remainingDepth(label bitlabel.Label) int {
	return r.MaxDepth - (label.Len() - (r.Dims + 1))
}

// underSplitBound reports whether a bucket at the given load cannot split —
// the check that lets Append skip record materialization. Unknown strategies
// return false so frontier gets to surface its error.
func (r SplitRule) underSplitBound(load int, label bitlabel.Label) bool {
	switch r.Strategy {
	case SplitThreshold:
		return load <= r.ThetaSplit || r.remainingDepth(label) <= 0
	case SplitDataAware:
		return load <= r.Epsilon || r.remainingDepth(label) <= 0
	}
	return false
}

// frontier returns the final leaf frontier for a (possibly overfull) cell.
// A single leaf means no split.
func (r SplitRule) frontier(cell kdtree.Cell) (kdtree.Frontier, error) {
	switch depth := r.remainingDepth(cell.Label); r.Strategy {
	case SplitThreshold:
		return kdtree.Threshold(cell, r.Dims, r.ThetaSplit, depth)
	case SplitDataAware:
		f, _, err := kdtree.Optimal(cell, r.Dims, r.Epsilon, depth)
		return f, err
	}
	return kdtree.Frontier{}, fmt.Errorf("core: unknown split strategy %v", r.Strategy)
}

// decideSplit returns the frontier's leaves with their records.
func (r SplitRule) decideSplit(cell kdtree.Cell) ([]kdtree.Cell, error) {
	f, err := r.frontier(cell)
	if err != nil {
		return nil, err
	}
	return f.Cells(), nil
}

// split divides a cell as the rule decides: stay is the piece that keeps the
// cell's DHT key and moved are the rest; moved is empty when the cell stays
// whole.
func (r SplitRule) split(cell kdtree.Cell) (stay kdtree.Cell, moved []kdtree.Cell, err error) {
	pieces, err := r.decideSplit(cell)
	if err != nil || len(pieces) <= 1 {
		return cell, nil, err
	}
	i, err := stayer(pieces, cell.Label, r.Dims)
	if err != nil {
		return kdtree.Cell{}, nil, err
	}
	moved = make([]kdtree.Cell, 0, len(pieces)-1)
	return pieces[i], append(append(moved, pieces[:i]...), pieces[i+1:]...), nil
}

// stayer finds the unique frontier piece whose name equals the split leaf's
// own name — by the subtree naming bijection exactly one exists — so it
// keeps the old key and peer, while the rest move.
func stayer(pieces []kdtree.Cell, oldLabel bitlabel.Label, m int) (int, error) {
	oldName := bitlabel.Name(oldLabel, m)
	stay := -1
	for i, p := range pieces {
		if bitlabel.Name(p.Label, m) != oldName {
			continue
		}
		if stay >= 0 {
			return -1, fmt.Errorf("core: two pieces named %v splitting %v", oldName, oldLabel)
		}
		stay = i
	}
	if stay < 0 {
		return -1, fmt.Errorf("core: no piece named %v splitting %v", oldName, oldLabel)
	}
	return stay, nil
}
