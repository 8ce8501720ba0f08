package core

import (
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// BulkLoad builds the index for a whole record set in one pass — the
// offline loading path (an extension beyond the paper, which only measures
// progressive insertion). The global space kd-tree is computed locally
// under the configured splitting strategy and every leaf bucket is placed
// with a single DHT put, so loading costs one DHT operation per bucket plus
// one transfer per record, instead of a lookup + apply per record.
//
// For the threshold strategy the resulting tree is identical to the one
// progressive insertion builds (splitting is monotone in the record set).
// For the data-aware strategy BulkLoad computes the *global* optimum of
// Algorithm 1's objective over the whole set, which can balance better than
// the incremental greedy splits.
//
// The index must be empty (just the bootstrap root bucket).
func (ix *Index) BulkLoad(records []spatial.Record) error {
	m := ix.opts.Dims
	for i, rec := range records {
		if rec.Key.Dim() != m {
			return fmt.Errorf("%w: record %d has %d dims, index has %d", ErrDimension, i, rec.Key.Dim(), m)
		}
		if !rec.Key.Valid() {
			return fmt.Errorf("core: record %d key %v outside the unit cube", i, rec.Key)
		}
	}
	if n, err := ix.Size(); err == nil && n > 0 {
		return fmt.Errorf("core: BulkLoad requires an empty index, found %d records", n)
	} else if err != nil {
		return fmt.Errorf("core: BulkLoad needs an enumerable substrate to verify emptiness: %w", err)
	}

	root := kdtree.Cell{
		Label:   bitlabel.Root(m),
		Region:  spatial.UnitCube(m),
		Records: append([]spatial.Record{}, records...),
	}
	// Exactly one frontier cell is named to the root's key; it overwrites
	// the bootstrap bucket in place, the rest are fresh puts.
	stay, moved, err := ix.splitRule().split(root)
	if err != nil {
		return err
	}
	if err := ix.raw.Put(labelKey(bitlabel.Name(root.Label, m)), NewBucket(stay.Label, stay.Records)); err != nil {
		return fmt.Errorf("core: bulk place root bucket: %w", err)
	}
	ix.stats.DHTLookups.Inc() // the loader ships the staying bucket too
	if err := ix.placeCells(moved); err != nil {
		return err
	}
	ix.stats.RecordsMoved.Add(int64(len(records)))
	ix.stats.Splits.Add(int64(len(moved)))
	return nil
}
