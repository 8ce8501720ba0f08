package pht

import (
	"fmt"
	"slices"

	"mlight/internal/bitlabel"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// QueryResult carries the answer and the cost of one range query, in the
// same units as the m-LIGHT core: DHT-lookups (bandwidth) and rounds of
// DHT-lookups on the critical path (latency). It is an alias of the shared
// index.Result, so results from the three schemes compare directly.
type QueryResult = index.Result

// RangeQuery answers a multi-dimensional range query by trie traversal
// (the SIGCOMM 2005 algorithm): start at the longest z-order prefix fully
// covering the range, then descend in parallel through every child whose
// cell overlaps the range. Internal markers carry no data, so the
// traversal always reaches the leaves — one probe per trie node touched,
// one round per trie level.
func (ix *Index) RangeQuery(q spatial.Rect) (res *QueryResult, err error) {
	if tc := ix.opts.Trace; tc != nil {
		span := tc.Begin(0, trace.KindQuery, "pht-range")
		defer func() {
			if err != nil {
				tc.End(span, trace.Str("error", err.Error()))
				return
			}
			tc.End(span,
				trace.Int("lookups", int64(res.Lookups)),
				trace.Int("rounds", int64(res.Rounds)),
				trace.Int("records", int64(len(res.Records))))
		}()
	}
	return ix.rangeQuery(q)
}

func (ix *Index) rangeQuery(q spatial.Rect) (*QueryResult, error) {
	m := ix.opts.Dims
	if q.Dim() != m {
		return nil, fmt.Errorf("pht: query has %d dims, index has %d", q.Dim(), m)
	}
	if _, err := spatial.NewRect(q.Lo, q.Hi); err != nil {
		return nil, fmt.Errorf("pht: invalid query rectangle: %w", err)
	}
	res := &QueryResult{}
	start := ix.coveringPrefix(q)
	// The start prefix may be deeper than the actual trie; back off until a
	// node exists. These sequential probes each cost a round.
	cur := start
	for {
		n, found, err := ix.getNode(cur, &res.Lookups)
		res.Rounds++
		if err != nil {
			return nil, err
		}
		if found {
			recs, rounds, lookups, err := ix.descend(n, q)
			if err != nil {
				return nil, err
			}
			res.Records = recs
			res.Lookups += lookups
			res.Rounds += rounds
			return res, nil
		}
		if cur.Len() == 0 {
			return nil, fmt.Errorf("%w: trie has no root", ErrNotFound)
		}
		cur = cur.Parent()
	}
}

// descend resolves the query under an already-fetched node. Children are
// probed in parallel, so rounds grow with depth, not fan-out.
func (ix *Index) descend(n node, q spatial.Rect) (records []spatial.Record, rounds, lookups int, err error) {
	if n.Kind == kindLeaf {
		for _, r := range n.Records {
			if q.Contains(r.Key) {
				records = append(records, r)
			}
		}
		return records, 0, 0, nil
	}
	for _, bit := range []byte{0, 1} {
		child := n.Label.MustAppend(bit)
		g := spatial.ZRegionOf(child, ix.opts.Dims)
		if !g.Overlaps(q) {
			continue
		}
		cn, found, getErr := ix.getNode(child, &lookups)
		if getErr != nil {
			return nil, 0, 0, getErr
		}
		childRounds := 1
		if found {
			recs, r, lk, descErr := ix.descend(cn, q)
			if descErr != nil {
				return nil, 0, 0, descErr
			}
			records = append(records, recs...)
			lookups += lk
			childRounds += r
		}
		if childRounds > rounds {
			rounds = childRounds // siblings are probed in parallel
		}
	}
	return records, rounds, lookups, nil
}

// coveringPrefix returns the longest z-order prefix whose cell covers the
// whole rectangle, bounded by MaxDepth.
func (ix *Index) coveringPrefix(q spatial.Rect) bitlabel.Label {
	m := ix.opts.Dims
	l := bitlabel.Empty
	g := spatial.UnitCube(m)
	for l.Len() < ix.opts.MaxDepth {
		dim := spatial.SplitDim(l.Len(), m)
		lower, upper := g.Halves(dim)
		switch {
		case lower.Covers(q):
			l = l.MustAppend(0)
			g = lower
		case upper.Covers(q):
			l = l.MustAppend(1)
			g = upper
		default:
			return l
		}
	}
	return l
}

// Delete removes one record matching key (and Data when non-empty),
// merging sibling leaves whose joint load falls below the merge threshold.
// A PHT merge pulls BOTH children's records up to the parent's key — every
// record moves, twice m-LIGHT's merge traffic.
func (ix *Index) Delete(key spatial.Point, data string) (bool, error) {
	leaf, _, err := ix.lookupLeaf(key)
	if err != nil {
		return false, err
	}
	removed := false
	var after node
	applyErr := ix.d.Apply(labelKey(leaf.Label), func(cur any, exists bool) (any, bool) {
		removed = false // the verdict is the last run's alone, as in insertAt
		if !exists {
			return nil, false
		}
		n, ok := cur.(node)
		if !ok || n.Kind != kindLeaf {
			return cur, true
		}
		for i, r := range n.Records {
			if slices.Equal(r.Key, key) && (data == "" || r.Data == data) {
				records := append([]spatial.Record{}, n.Records[:i]...)
				records = append(records, n.Records[i+1:]...)
				n.Records = records
				removed = true
				break
			}
		}
		after = n
		return n, true
	})
	if applyErr != nil {
		return false, fmt.Errorf("pht: delete apply at %v: %w", leaf.Label, applyErr)
	}
	if !removed {
		return false, nil
	}
	if err := ix.mergeUpwards(after); err != nil {
		return true, err
	}
	return true, nil
}

// mergeUpwards collapses sibling leaf pairs into their parent while their
// joint load is below the merge threshold.
func (ix *Index) mergeUpwards(n node) error {
	for n.Label.Len() > 0 {
		sibLabel := n.Label.Sibling()
		sib, found, err := ix.getNode(sibLabel, nil)
		if err != nil {
			return err
		}
		if !found || sib.Kind != kindLeaf {
			return nil
		}
		if n.Load()+sib.Load() >= ix.opts.MergeThreshold {
			return nil
		}
		parentLabel := n.Label.Parent()
		merged := node{
			Kind:    kindLeaf,
			Label:   parentLabel,
			Records: append(append([]spatial.Record{}, n.Records...), sib.Records...),
		}
		// The parent's marker is rewritten with the merged leaf, and both
		// children are removed: both record sets cross the DHT.
		if err := ix.d.Put(labelKey(parentLabel), merged); err != nil {
			return fmt.Errorf("pht: merge write %v: %w", parentLabel, err)
		}
		ix.stats.RecordsMoved.Add(int64(merged.Load()))
		if err := ix.d.Remove(labelKey(n.Label)); err != nil {
			return fmt.Errorf("pht: merge remove %v: %w", n.Label, err)
		}
		if err := ix.d.Remove(labelKey(sibLabel)); err != nil {
			return fmt.Errorf("pht: merge remove %v: %w", sibLabel, err)
		}
		ix.stats.Merges.Inc()
		n = merged
	}
	return nil
}
