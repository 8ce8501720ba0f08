package core

import (
	"errors"
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// Insert adds a record to the index (paper §4): the §5 search locates the
// leaf bucket, the record is applied at the owning peer, and if the bucket's
// load now warrants it the peer splits locally. Per Theorem 5 exactly one
// piece of a split keeps the old DHT key, so only the other pieces are
// re-assigned — the incremental maintenance that halves m-LIGHT's split cost
// relative to PHT — and the split is a move (move.go) that no other client
// sees half done. One attempt: the search ends in the write.
func (ix *Index) Insert(rec spatial.Record) error {
	path, err := ix.pathLabel(rec.Key)
	if err != nil {
		return err
	}
	var w wrote
	if err := ix.write(rec.Key, path, ix.appendProbe([]spatial.Record{rec}, &w)); err != nil {
		return err
	}
	ix.settle(&w.commit)
	return ix.finishMove(w.key, w.commit.Moved, w.commit.Gen)
}

// wrote is where a write landed: the commit, and the key of the bucket it
// landed in.
type wrote struct {
	commit Commit
	key    bitlabel.Label
}

// write runs a write at δ's leaf, the write given as a §5 probe. Without a
// cache it is the paper's lookup-then-apply — the search probes with bucket
// reads and the write goes to the leaf found, which Fig. 5 charges as the
// lookup plus one operation — and should the leaf have changed in between,
// the owner's answer is the search's next probe and the search goes on with
// the write as its probe. A cached client's search probes with the write
// itself: the probe that reaches the leaf covering δ is the write, a cache
// hit is the first probe, and an owner that does not hold δ's leaf answers
// with the label it holds, which is all the §5 rules read of a probe. The
// search ends in the write or in an error.
func (ix *Index) write(key spatial.Point, path bitlabel.Label, at probe) error {
	v := ix.cacheView(path)
	if ix.cache != nil {
		_, err := ix.searchPath(key, path, v, at, &LookupTrace{}, 0)
		return err
	}
	// Cache off is the paper's configuration and the reference driver for
	// Fig. 5's accounting; the write-as-probe search has not been measured
	// without a cache.
	var lt LookupTrace
	b, err := ix.lookupPath(key, path, v, &lt, 0)
	if err != nil {
		return err
	}
	m := ix.opts.Dims
	name := bitlabel.Name(b.Label, m)
	label, landed, err := at(name, 0)
	if err != nil || landed {
		return err
	}
	r := span{lo: m + 1, hi: path.Len()}
	if err := r.narrow(b.Label.Len(), name, label, path); err == nil {
		if _, err = ix.searchFrom(key, path, r, at, &lt, 0); !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	_, err = ix.walk(key, path, at, &lt, 0)
	return err
}

// appendProbe is an insert's write as a probe: SplitRule.Append of records, as
// data (ops.go), sent to the key. When it lands, *w is the commit and the key
// it landed at, and the label reported is the leaf it landed in. Insert sends
// one record, a group commit (InsertBatch) every record it resolved to the
// key. An owner whose bucket is moving may answer with a hop instead: the
// probe installs the frozen piece the records belong to and goes on at its
// target (move.go).
//
// A substrate may run the op more than once — dht.RemoteApply on every lost
// CAS, dht.Resilient on every retry — and stores only what the last run
// returned; the op holds no state for a run to leave behind, and counters, the
// cache and placement are the driver's, once, after the commit is back.
func (ix *Index) appendProbe(recs []spatial.Record, w *wrote) probe {
	op := AppendOp{Rule: ix.splitRule(), Records: recs}
	return ix.traceWrite("append", func(key bitlabel.Label) (bitlabel.Label, bool, error) {
		return ix.hopping(key, func(key bitlabel.Label) (bitlabel.Label, *hop, bool, error) {
			res, err := dht.Do(ix.d, labelKey(key), op)
			if err != nil {
				return bitlabel.Label{}, nil, false, fmt.Errorf("core: insert apply at %v: %w", key, err)
			}
			c, _ := res.(Commit)
			w.commit, w.key = c, key
			switch {
			case c.Err != nil:
				return bitlabel.Label{}, nil, false, fmt.Errorf("core: insert split at %v: %w", key, c.Err)
			case c.Gone:
				return c.Keep.Label, c.Hop, false, nil
			}
			return c.leaf(), nil, true, nil
		})
	})
}

// removeProbe is Delete's write as a probe: Remove at the key, as data
// (ops.go). When it lands, *out is the removal; the label reported is the
// leaf's when a record was removed and empty when none matched. It follows a
// hop as appendProbe does.
func (ix *Index) removeProbe(point spatial.Point, data string, out *Removal) probe {
	op := RemoveOp{Key: point, Data: data, MergeThreshold: ix.opts.MergeThreshold}
	return ix.traceWrite("remove", func(key bitlabel.Label) (bitlabel.Label, bool, error) {
		return ix.hopping(key, func(key bitlabel.Label) (bitlabel.Label, *hop, bool, error) {
			res, err := dht.Do(ix.d, labelKey(key), op)
			if err != nil {
				return bitlabel.Label{}, nil, false, fmt.Errorf("core: delete apply at %v: %w", key, err)
			}
			*out, _ = res.(Removal)
			return out.Keep.Label, out.Hop, !out.Gone, nil
		})
	})
}

// maxHops bounds the hops one write follows: each goes to a piece of a move
// under way, deeper in the tree or back to a merge given up.
const maxHops = 64

// hopping sends a write to key with send, which may answer with a hop, and
// follows the hop: the hop's piece is installed (install) and the write sent
// again to the key install names. A hop that leads nowhere — the move ended,
// and the piece moved on, while the write was on its way — sends the write to
// the key it hopped from once more.
func (ix *Index) hopping(key bitlabel.Label, send func(key bitlabel.Label) (bitlabel.Label, *hop, bool, error)) (bitlabel.Label, bool, error) {
	from, back := key, false
	for range maxHops {
		label, h, landed, err := send(key)
		switch {
		case err != nil || landed:
			return label, landed, err
		case h != nil:
			if key, err = ix.install(*h); err != nil {
				return bitlabel.Label{}, false, err
			}
			continue
		case key != from && !back:
			key, back = from, true
			continue
		}
		return label, false, nil
	}
	return bitlabel.Label{}, false, fmt.Errorf("core: write at %v followed %d hops", key, maxHops)
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
	if err := ix.write(key, path, ix.removeProbe(key, data, &out)); err != nil {
		return false, err
	}
	if !out.Removed {
		return false, nil
	}
	// A bucket that holds θmerge records by itself cannot merge.
	if out.Load >= ix.opts.MergeThreshold {
		return true, nil
	}
	return true, ix.mergeUpwards(out.Keep.Label, out.Load, out.Keep.merges())
}

// mergeUpwards merges the leaf with its sibling leaf while the pair jointly
// holds fewer than θmerge records, cascading towards the root. A leaf that
// holds θmerge records by itself fails that test whatever its sibling holds,
// so the sibling is not probed.
//
// Each merge is a move (move.go) over the two children of parent: x, the one
// named parent, is retired from its key, and y, stored under fmd(parent),
// absorbs it. The sequence is one whichever child this delete wrote; the ops
// at that child's key are the owner's own rewrites, uncounted as §4.1's
// local rewrites are. A step that finds the pair changed gives the merge up:
// a sibling that is no longer a leaf, or no longer stored, is not read twice.
func (ix *Index) mergeUpwards(leaf bitlabel.Label, load int, gen uint64) error {
	m := ix.opts.Dims
	for leaf != bitlabel.Root(m) && load < ix.opts.MergeThreshold {
		sibLabel := leaf.Sibling()
		sib, found, err := ix.getBucket(bitlabel.Name(sibLabel, m))
		if err != nil {
			return err
		}
		if !found || sib.Label != sibLabel || sib.mark() != nil || load+sib.Load() >= ix.opts.MergeThreshold {
			// The sibling is an internal node (its key hosts some deeper
			// corner leaf), missing, moving, or too full: no merge.
			return nil
		}
		parent := leaf.Parent()
		absorber := bitlabel.Name(parent, m)
		x, expect := leaf, sib.merges()
		if bitlabel.Name(leaf, m) == absorber {
			x, expect = sibLabel, gen
		}
		own := bitlabel.Name(leaf, m)
		via := func(key bitlabel.Label) dht.DHT {
			if key == own {
				return ix.raw
			}
			return ix.d
		}
		res, err := dht.Do(via(parent), labelKey(parent), RetireOp{Label: x, Expect: expect})
		if err != nil {
			return fmt.Errorf("core: merge retire %v: %w", x, err)
		}
		retired, _ := res.(Retired)
		if !retired.Done {
			return nil
		}
		res, err = dht.Do(via(absorber), labelKey(absorber), InstallOp{Rule: ix.splitRule(), Piece: retired.Bucket, Absorb: true, Expect: expect})
		if err != nil {
			return fmt.Errorf("core: merge into %v: %w", parent, err)
		}
		c, _ := res.(Commit)
		if c.Err != nil {
			return fmt.Errorf("core: merge into %v: %w", parent, c.Err)
		}
		clear := ClearOp{Labels: []bitlabel.Label{x}, Restore: c.Gone}
		if _, err := dht.Do(via(parent), labelKey(parent), clear); err != nil {
			return fmt.Errorf("core: merge clear %v: %w", x, err)
		}
		if c.Gone {
			// The sibling stopped being the leaf under fmd(parent): x stays.
			return nil
		}
		if err := ix.finishMove(absorber, c.Moved, c.Gen); err != nil {
			return err
		}
		ix.stats.Merges.Inc()
		ix.stats.RecordsMoved.Add(int64(retired.Bucket.Load()))
		// Both children are gone; the parent is the leaf this client just
		// wrote.
		ix.invalidateLeaf(leaf)
		ix.invalidateLeaf(sibLabel)
		ix.cacheLeaf(c.Keep.Label)
		if len(c.Moved) > 0 || c.Keep.Label != parent {
			return nil
		}
		leaf, load, gen = parent, c.Load, c.Gen
	}
	return nil
}
