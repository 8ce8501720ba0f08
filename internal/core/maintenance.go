package core

import (
	"errors"
	"fmt"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
)

// Insert adds a record to the index (paper §4): a lookup locates the leaf
// bucket, the record is applied at the owning peer, and if the bucket's
// load now warrants it the peer splits locally. Per Theorem 5 exactly one
// piece of a split keeps the old DHT key, so only the other pieces are
// re-assigned with DHT puts — the incremental maintenance that halves
// m-LIGHT's split cost relative to PHT.
func (ix *Index) Insert(rec spatial.Record) error {
	path, err := ix.pathLabel(rec.Key)
	if err != nil {
		return err
	}
	// With the covering leaf in the cache the record goes straight to that
	// leaf's key: the transform checks the stored label itself (Commit.Gone),
	// so the probe a lookup would spend verifying the entry checks nothing
	// the Apply does not. A wrong guess costs that one Apply and falls back
	// to the lookup. A miss hands the lookup the cache's bound.
	v := ix.cacheView(path)
	if v.hit {
		placed, err := ix.insertAt(v.leaf, rec)
		if err != nil {
			return err
		}
		if placed {
			ix.stats.CacheHits.Inc()
			return nil
		}
		ix.stats.CacheStale.Inc()
		v = ix.cacheView(path)
	}
	const maxAttempts = 12
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// Back off briefly: a concurrent split's relocated buckets
			// become visible within a few put operations. The sleeper is
			// injectable (Tuning.Sleep) so tests stay deterministic.
			backoff := time.Duration(1<<uint(min(attempt, 6))) * 25 * time.Microsecond
			ix.opts.Sleep(backoff)
			v = ix.cacheView(path)
		}
		b, err := ix.lookupPath(rec.Key, path, v, &LookupTrace{}, 0)
		if errors.Is(err, ErrNotFound) {
			// A concurrent split is mid-flight: the bucket moving to its
			// new key is not yet visible. Retry from a fresh lookup.
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		if placed, err := ix.insertAt(b.Label, rec); placed || err != nil {
			return err
		}
	}
	if lastErr != nil {
		return fmt.Errorf("core: insert %v: retries exhausted: %w", rec.Key, lastErr)
	}
	return fmt.Errorf("core: insert %v: too many conflicting bucket changes", rec.Key)
}

// insertAt applies rec at the key of leaf and finishes the insert there:
// counters, cache, and the placement of what a split moved. placed is false,
// with the cache entry dropped, when the stored bucket is not that leaf (it
// split or merged since the caller learned the label): retry from a fresh
// lookup.
func (ix *Index) insertAt(leaf bitlabel.Label, rec spatial.Record) (placed bool, err error) {
	res, err := dht.Do(ix.d, labelKey(bitlabel.Name(leaf, ix.opts.Dims)), ix.appendOp(leaf, []spatial.Record{rec}))
	if err != nil {
		return false, fmt.Errorf("core: insert apply at %v: %w", leaf, err)
	}
	c, _ := res.(Commit)
	if c.Err != nil {
		return false, fmt.Errorf("core: insert split at %v: %w", leaf, c.Err)
	}
	if c.Gone || len(c.Stale) > 0 {
		ix.invalidateLeaf(leaf)
		return false, nil
	}
	ix.settle(leaf, &c)
	return true, ix.placeCells(c.Moved)
}

// appendOp is the transform both insert drivers send to a leaf's owner:
// SplitRule.Append over the stored bucket, as data (ops.go). A substrate may
// run a transform more than once — dht.RemoteApply on every lost CAS,
// dht.Resilient on every retry — and stores only what the last run returned;
// the op holds no state for a run to leave behind, and counters, the cache and
// placement are the driver's, once, after the commit is back.
func (ix *Index) appendOp(leaf bitlabel.Label, records []spatial.Record) AppendOp {
	return AppendOp{Rule: ix.splitRule(), Leaf: leaf, Records: records}
}

// settle books a stored commit: the maintenance its replay performed plus one
// moved record per accepted insert (the record crossing the DHT to its
// bucket), and what this client now knows of the leaves — after a split the
// old label no longer names one, and the relocated pieces are fresh leaves.
func (ix *Index) settle(leaf bitlabel.Label, c *Commit) {
	ix.stats.Splits.Add(c.Splits)
	ix.stats.RecordsMoved.Add(c.RecordsMoved + int64(c.Accepted))
	if len(c.Moved) > 0 {
		ix.invalidateLeaf(leaf)
		if ix.cache != nil {
			for _, p := range c.Moved {
				ix.cache.add(p.Label)
			}
		}
	}
}

// placeOps appends to ops the puts that write relocated cells to their DHT
// keys. Empty cells still become buckets (the bijection requires a bucket per
// leaf).
func (ix *Index) placeOps(ops []dht.PutOp, cells []kdtree.Cell) []dht.PutOp {
	for _, c := range cells {
		b := NewBucket(c.Label, c.Records)
		ops = append(ops, dht.PutOp{Key: b.Key(ix.opts.Dims), Value: b})
	}
	return ops
}

// placeCells writes relocated buckets in one PutBatch round — the
// destinations are independent leaves, so the transfers overlap up to
// Tuning.MaxInFlight instead of paying one blocking round trip per bucket.
// Each placed bucket is one DHT operation; the records it carries were
// charged where the split was decided.
func (ix *Index) placeCells(cells []kdtree.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	for i, err := range dht.PutBatch(ix.d, ix.placeOps(nil, cells), ix.opts.MaxInFlight) {
		if err != nil {
			return fmt.Errorf("core: place bucket %v: %w", cells[i].Label, err)
		}
	}
	return nil
}

// Delete removes one record matching key (and Data when non-empty). It
// reports whether a record was removed, merging underfull sibling leaves
// afterwards (§4.1): the merged bucket keeps the key one child already
// occupies, so only the other child's records cross the DHT.
func (ix *Index) Delete(key spatial.Point, data string) (bool, error) {
	path, err := ix.pathLabel(key)
	if err != nil {
		return false, err
	}
	// As in Insert, a cached covering leaf is tried without the verifying
	// lookup. Only "the label moved" sends the delete down the verified path:
	// a leaf that is the stored one and does not hold the record settles it.
	v := ix.cacheView(path)
	if v.hit {
		out, err := ix.removeAt(v.leaf, key, data)
		if err != nil {
			return false, err
		}
		if !out.Gone {
			ix.stats.CacheHits.Inc()
			return ix.merged(out, nil)
		}
		ix.stats.CacheStale.Inc()
		ix.invalidateLeaf(v.leaf)
		v = ix.cacheView(path)
	}
	b, err := ix.lookupPath(key, path, v, &LookupTrace{}, 0)
	if err != nil {
		return false, err
	}
	return ix.merged(ix.removeAt(b.Label, key, data))
}

// removeAt runs Remove at the key of leaf, as data (ops.go).
func (ix *Index) removeAt(leaf bitlabel.Label, key spatial.Point, data string) (Removal, error) {
	op := RemoveOp{Leaf: leaf, Key: key, Data: data, MergeThreshold: ix.opts.MergeThreshold}
	res, err := dht.Do(ix.d, labelKey(bitlabel.Name(leaf, ix.opts.Dims)), op)
	if err != nil {
		return Removal{}, fmt.Errorf("core: delete apply at %v: %w", leaf, err)
	}
	out, _ := res.(Removal)
	return out, nil
}

// merged finishes a delete: a removal is followed by the merge cascade,
// unless the bucket holds θmerge records by itself — then nothing can merge,
// and an owner that reported the removal across a socket kept the records.
func (ix *Index) merged(out Removal, err error) (bool, error) {
	if err != nil || !out.Removed {
		return false, err
	}
	if out.Load >= ix.opts.MergeThreshold {
		return true, nil
	}
	return true, ix.mergeUpwards(out.Keep)
}

// mergeUpwards merges the bucket with its sibling leaf while the pair
// jointly holds fewer than θmerge records, cascading towards the root. A
// bucket that holds θmerge records by itself fails that test whatever its
// sibling holds, so the sibling is not probed.
func (ix *Index) mergeUpwards(b Bucket) error {
	m := ix.opts.Dims
	for b.Label != bitlabel.Root(m) && b.Load() < ix.opts.MergeThreshold {
		sibLabel := b.Label.Sibling()
		sib, found, err := ix.getBucket(bitlabel.Name(sibLabel, m), nil)
		if err != nil {
			return err
		}
		if !found || sib.Label != sibLabel {
			// The sibling is an internal node (its key hosts some deeper
			// corner leaf) or missing: no merge possible.
			return nil
		}
		if b.Load()+sib.Load() >= ix.opts.MergeThreshold {
			return nil
		}
		parent := b.Label.Parent()
		parentName := bitlabel.Name(parent, m)
		merged := NewBucket(parent, append(b.Records(), sib.Records()...))
		if bitlabel.Name(b.Label, m) == parentName {
			// We already sit at the merged bucket's key: rewrite locally,
			// and pull the sibling's bucket across the DHT.
			if err := ix.raw.Put(labelKey(parentName), merged); err != nil {
				return fmt.Errorf("core: merge rewrite %v: %w", parent, err)
			}
			if err := ix.d.Remove(labelKey(bitlabel.Name(sibLabel, m))); err != nil {
				return fmt.Errorf("core: merge remove %v: %w", sibLabel, err)
			}
			ix.stats.RecordsMoved.Add(int64(sib.Load()))
		} else {
			// The sibling sits at the merged key: ship our records there
			// and retire our own bucket locally.
			if err := ix.d.Put(labelKey(parentName), merged); err != nil {
				return fmt.Errorf("core: merge write %v: %w", parent, err)
			}
			ix.stats.RecordsMoved.Add(int64(b.Load()))
			if err := ix.raw.Remove(labelKey(bitlabel.Name(b.Label, m))); err != nil {
				return fmt.Errorf("core: merge retire %v: %w", b.Label, err)
			}
		}
		ix.stats.Merges.Inc()
		// Both children are gone; the parent is the leaf this client just
		// wrote.
		ix.invalidateLeaf(b.Label)
		ix.invalidateLeaf(sibLabel)
		ix.cacheLeaf(merged)
		b = merged
	}
	return nil
}
