package core

import (
	"fmt"

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
}

// Append replays records, in order, into the stored leaf bucket, if its cell
// covers any of them. Each record joins the frontier cell that covers it (the
// frontier starts as the leaf alone and always tiles the leaf's region) and
// may split that cell: the piece named to the cell's key takes its place, the
// rest join the frontier. Until the first record that crosses the split bound
// the bucket is only extended in its columnar form — amortized O(1) per
// record, no record materialized; a plain arena append is safe because
// readers of the previous Bucket value hold their own shorter arenas (see
// columnar.go).
func (r SplitRule) Append(stored Bucket, records []spatial.Record) (c Commit) {
	leaf := stored.Label
	region, err := spatial.RegionOf(leaf, r.Dims)
	if err != nil || !coversAny(region, records) {
		return Commit{Keep: Bucket{Label: leaf}, Gone: true}
	}
	keep := stored // slot 0 in columnar form, while it has not split
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
			frontier, slot = []kdtree.Cell{{Label: leaf, Region: region, Records: next.Records()}}, 0
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
				// better subtree): still the stored arenas, extended.
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
// bucket with the records appended — which an owner that stores the bucket as
// bytes can do to the bytes (AppendOp.RunBytes).
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
// among them — covers nothing.
func covers(leaf bitlabel.Label, key spatial.Point) bool {
	region, err := spatial.RegionOf(leaf, key.Dim())
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
}

// Remove takes one record matching key (and data, when non-empty) out of the
// stored leaf bucket, if its cell covers key. The survivors are packed into
// fresh arenas — an in-place shift would mutate storage concurrent readers
// share.
func Remove(stored Bucket, key spatial.Point, data string) Removal {
	leaf := stored.Label
	if !covers(leaf, key) {
		return Removal{Keep: Bucket{Label: leaf}, Gone: true}
	}
	for i, n := 0, stored.Load(); i < n; i++ {
		if samePoint(stored.KeyAt(i), key) && (data == "" || stored.DataAt(i) == data) {
			records := make([]spatial.Record, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					records = append(records, stored.RecordAt(j))
				}
			}
			return Removal{Keep: NewBucket(leaf, records), Load: n - 1, Removed: true}
		}
	}
	return Removal{}
}

// remainingDepth returns how many more levels a leaf at label may split.
func (r SplitRule) remainingDepth(label bitlabel.Label) int {
	return r.MaxDepth - (label.Len() - (r.Dims + 1))
}

// underSplitBound reports whether a bucket at the given load cannot split —
// the check that lets Append skip record materialization. Unknown strategies
// return false so decideSplit gets to surface its error.
func (r SplitRule) underSplitBound(load int, label bitlabel.Label) bool {
	switch r.Strategy {
	case SplitThreshold:
		return load <= r.ThetaSplit || r.remainingDepth(label) <= 0
	case SplitDataAware:
		return load <= r.Epsilon || r.remainingDepth(label) <= 0
	}
	return false
}

// decideSplit returns the final leaf frontier for a (possibly overfull) cell.
// A single-element result means no split.
func (r SplitRule) decideSplit(cell kdtree.Cell) ([]kdtree.Cell, error) {
	if r.underSplitBound(cell.Load(), cell.Label) {
		return []kdtree.Cell{cell}, nil
	}
	switch depth := r.remainingDepth(cell.Label); r.Strategy {
	case SplitThreshold:
		return kdtree.ThresholdSplit(cell, r.Dims, r.ThetaSplit, depth)
	case SplitDataAware:
		cells, _, err := kdtree.OptimalSplit(cell, r.Dims, r.Epsilon, depth)
		return cells, err
	}
	return nil, fmt.Errorf("core: unknown split strategy %v", r.Strategy)
}

// split divides a cell as the rule decides: stay is the piece that keeps the
// cell's DHT key and moved are the rest; moved is empty when the cell stays
// whole.
func (r SplitRule) split(cell kdtree.Cell) (stay kdtree.Cell, moved []kdtree.Cell, err error) {
	pieces, err := r.decideSplit(cell)
	if err != nil || len(pieces) <= 1 {
		return cell, nil, err
	}
	return pickStayer(pieces, cell.Label, r.Dims)
}

// pickStayer finds the unique frontier piece whose name equals the split
// leaf's own name — by the subtree naming bijection exactly one exists —
// so it keeps the old key and peer, while the rest move.
func pickStayer(pieces []kdtree.Cell, oldLabel bitlabel.Label, m int) (stay kdtree.Cell, moved []kdtree.Cell, err error) {
	oldName := bitlabel.Name(oldLabel, m)
	found := false
	for _, p := range pieces {
		if bitlabel.Name(p.Label, m) == oldName {
			if found {
				return kdtree.Cell{}, nil, fmt.Errorf("core: two pieces named %v splitting %v", oldName, oldLabel)
			}
			stay = p
			found = true
			continue
		}
		moved = append(moved, p)
	}
	if !found {
		return kdtree.Cell{}, nil, fmt.Errorf("core: no piece named %v splitting %v", oldName, oldLabel)
	}
	return stay, moved, nil
}
