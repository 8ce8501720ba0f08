package core

import (
	"errors"
	"fmt"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/kdtree"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// Insert adds a record to the index (paper §4): the §5 search locates the
// leaf bucket, the record is applied at the owning peer, and if the bucket's
// load now warrants it the peer splits locally. Per Theorem 5 exactly one
// piece of a split keeps the old DHT key, so only the other pieces are
// re-assigned with DHT puts — the incremental maintenance that halves
// m-LIGHT's split cost relative to PHT.
func (ix *Index) Insert(rec spatial.Record) error {
	path, err := ix.pathLabel(rec.Key)
	if err != nil {
		return err
	}
	const maxAttempts = 12
	var lastErr error
	recs := []spatial.Record{rec}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// Back off briefly: a concurrent split's relocated buckets
			// become visible within a few put operations. The sleeper is
			// injectable (Tuning.Sleep) so tests stay deterministic.
			backoff := time.Duration(1<<uint(min(attempt, 6))) * 25 * time.Microsecond
			ix.opts.Sleep(backoff)
		}
		var c Commit
		landed, err := ix.write(rec.Key, path, ix.appendProbe(recs, &c))
		if errors.Is(err, ErrNotFound) {
			// A concurrent split is mid-flight: the bucket moving to its
			// new key is not yet visible. Retry from a fresh search.
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		if landed {
			ix.settle(&c)
			return ix.placeCells(c.Moved)
		}
	}
	if lastErr != nil {
		return fmt.Errorf("core: insert %v: retries exhausted: %w", rec.Key, lastErr)
	}
	return fmt.Errorf("core: insert %v: too many conflicting bucket changes", rec.Key)
}

// write runs a write at δ's leaf, the write given as a §5 probe, and reports
// whether it landed. Without a cache it is the paper's lookup-then-apply —
// the search probes with bucket reads and the write goes to the leaf found,
// which Fig. 5 charges as the lookup plus one operation — and it does not
// land when the leaf split or merged in between. A cached client's search
// probes with the write itself: the probe that reaches the leaf covering δ is
// the write, a cache hit is the first probe, and an owner that does not hold
// δ's leaf answers with the label it holds, which is all the §5 rules read of
// a probe. The search ends in the write or in an error.
func (ix *Index) write(key spatial.Point, path bitlabel.Label, at probe) (landed bool, err error) {
	v := ix.cacheView(path)
	if ix.cache != nil {
		_, err := ix.searchPath(key, path, v, at, &LookupTrace{}, 0)
		return err == nil, err
	}
	// Cache off is the paper's configuration and the reference driver for
	// Fig. 5's accounting; the write-as-probe search has not been measured
	// without a cache.
	b, err := ix.lookupPath(key, path, v, &LookupTrace{}, 0)
	if err != nil {
		return false, err
	}
	_, landed, err = at(bitlabel.Name(b.Label, ix.opts.Dims), 0)
	return landed, err
}

// appendProbe is an insert's write as a probe: SplitRule.Append of records, as
// data (ops.go), sent to the key. When it lands, *c is the commit and the label
// reported is the leaf it landed in. Insert sends one record, a group commit
// (InsertBatch) every record it resolved to the key.
//
// A substrate may run the op more than once — dht.RemoteApply on every lost
// CAS, dht.Resilient on every retry — and stores only what the last run
// returned; the op holds no state for a run to leave behind, and counters, the
// cache and placement are the driver's, once, after the commit is back.
func (ix *Index) appendProbe(recs []spatial.Record, c *Commit) probe {
	op := AppendOp{Rule: ix.splitRule(), Records: recs}
	return ix.traceWrite("append", func(key bitlabel.Label) (bitlabel.Label, bool, error) {
		res, err := dht.Do(ix.d, labelKey(key), op)
		if err != nil {
			return bitlabel.Label{}, false, fmt.Errorf("core: insert apply at %v: %w", key, err)
		}
		*c, _ = res.(Commit)
		switch {
		case c.Err != nil:
			return bitlabel.Label{}, false, fmt.Errorf("core: insert split at %v: %w", key, c.Err)
		case c.Gone:
			return c.Keep.Label, false, nil
		}
		return c.leaf(), true, nil
	})
}

// removeProbe is Delete's write as a probe: Remove at the key, as data
// (ops.go). When it lands, *out is the removal; the label reported is the
// leaf's when a record was removed and empty when none matched.
func (ix *Index) removeProbe(point spatial.Point, data string, out *Removal) probe {
	op := RemoveOp{Key: point, Data: data, MergeThreshold: ix.opts.MergeThreshold}
	return ix.traceWrite("remove", func(key bitlabel.Label) (bitlabel.Label, bool, error) {
		res, err := dht.Do(ix.d, labelKey(key), op)
		if err != nil {
			return bitlabel.Label{}, false, fmt.Errorf("core: delete apply at %v: %w", key, err)
		}
		*out, _ = res.(Removal)
		return out.Keep.Label, !out.Gone, nil
	})
}

// traceWrite makes send a probe that, when tracing is enabled, records one
// KindDHTOp span named name under the search's span, ended with the
// outcome: landed, or the label the owner reported instead.
func (ix *Index) traceWrite(name string, send func(key bitlabel.Label) (bitlabel.Label, bool, error)) probe {
	tc := ix.opts.Trace
	if tc == nil {
		return func(key bitlabel.Label, _ trace.SpanID) (bitlabel.Label, bool, error) { return send(key) }
	}
	return func(key bitlabel.Label, parent trace.SpanID) (bitlabel.Label, bool, error) {
		span := tc.Begin(parent, trace.KindDHTOp, name, trace.Str("label", key.String()))
		stored, landed, err := send(key)
		switch {
		case err != nil:
			tc.End(span, trace.Str("error", err.Error()))
		case landed:
			tc.End(span, trace.Int("landed", 1))
		default:
			tc.End(span, trace.Str("stored", stored.String()))
		}
		return stored, landed, err
	}
}

// settle books a stored commit: the maintenance its replay performed plus one
// moved record per accepted insert (the record crossing the DHT to its
// bucket), and what this client now knows of the leaves — after a split the
// leaf it landed in no longer is one, and the relocated pieces are fresh
// leaves.
func (ix *Index) settle(c *Commit) {
	ix.stats.Splits.Add(c.Splits)
	ix.stats.RecordsMoved.Add(c.RecordsMoved + int64(c.Accepted))
	if len(c.Moved) > 0 {
		ix.invalidateLeaf(c.leaf())
		for _, p := range c.Moved {
			ix.cacheLeaf(p.Label)
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
	return ix.placeBuckets(ix.placeOps(nil, cells))
}

// placeBuckets writes the puts of placeOps in one PutBatch round.
func (ix *Index) placeBuckets(ops []dht.PutOp) error {
	if len(ops) == 0 {
		return nil
	}
	for i, err := range dht.PutBatch(ix.d, ops, ix.opts.MaxInFlight) {
		if err != nil {
			return fmt.Errorf("core: place bucket %v: %w", ops[i].Value.(Bucket).Label, err)
		}
	}
	return nil
}

// Delete removes one record matching key (and Data when non-empty). It
// reports whether a record was removed, merging underfull sibling leaves
// afterwards (§4.1): the merged bucket keeps the key one child already
// occupies, so only the other child's records cross the DHT. The write finds
// the leaf as Insert's does (write); a leaf that covers key and does not hold
// the record settles the delete.
func (ix *Index) Delete(key spatial.Point, data string) (bool, error) {
	path, err := ix.pathLabel(key)
	if err != nil {
		return false, err
	}
	var out Removal
	if _, err := ix.write(key, path, ix.removeProbe(key, data, &out)); err != nil {
		return false, err
	}
	if !out.Removed {
		return false, nil
	}
	// A bucket that holds θmerge records by itself cannot merge, and an owner
	// that reported the removal across a socket kept the records.
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
		sib, found, err := ix.getBucket(bitlabel.Name(sibLabel, m))
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
		ix.cacheLeaf(merged.Label)
		b = merged
	}
	return nil
}
