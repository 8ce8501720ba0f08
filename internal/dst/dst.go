// Package dst implements the Distributed Segment Tree (Zheng et al., IPTPS
// 2006; Shen et al., MSR-TR 2007) over the generic dht.DHT interface — the
// second baseline of the m-LIGHT evaluation. Multi-dimensional keys are
// linearised with the z-order curve, and the segment tree is the complete
// binary tree of z-prefixes up to a fixed height D.
//
// DST's design point is O(1)-latency range queries: every internal node
// replicates the records of its whole subtree, so a range decomposed into
// canonical (maximal fully-covered) cells is answered with one parallel
// round of DHT-lookups. The costs the m-LIGHT paper measures follow
// directly:
//
//   - every insert writes the record at all D+1 ancestors (minus saturated
//     ones) — an order of magnitude more data movement than m-LIGHT;
//   - a node saturates at its capacity γ and stops replicating; queries
//     hitting a saturated node must descend, which is why DST's latency
//     grows sharply with the queried range;
//   - with D larger than the data's real depth, a query range decomposes
//     into very many small canonical cells along its boundary, which is
//     why DST's query bandwidth is an order of magnitude above m-LIGHT's
//     (§7.4 of the m-LIGHT paper).
package dst

import (
	"fmt"
	"slices"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
)

// node is the stored value of one segment-tree node.
type node struct {
	Label bitlabel.Label
	// Saturated marks a node that reached capacity and stopped
	// replicating; its record set is a subset and must not answer queries.
	Saturated bool
	Records   []spatial.Record
}

// Index is a DST client bound to a DHT substrate.
type Index struct {
	opts  index.Tuning
	d     *dht.Counting
	stats *metrics.IndexStats
}

var _ index.Querier = (*Index)(nil)

// New creates a DST client over d. The segment tree needs no bootstrap:
// nodes materialise on first insert. Of t it reads Dims, MaxDepth (the fixed
// tree height D), Capacity (γ: the records an internal node replicates
// before it saturates; leaf-level nodes never do), Retry and Trace.
func New(d dht.DHT, t index.Tuning) (*Index, error) {
	t, err := t.Normalize()
	if err != nil {
		return nil, err
	}
	if t.MaxDepth > bitlabel.MaxLen {
		return nil, fmt.Errorf("dst: MaxDepth %d out of range (need D ≤ %d)", t.MaxDepth, bitlabel.MaxLen)
	}
	s := index.Stack(d, t)
	return &Index{opts: t, d: s.Counted, stats: s.Stats}, nil
}

func labelKey(l bitlabel.Label) dht.Key {
	return dht.Key("dst/" + l.Key())
}

// Stats returns a snapshot of the maintenance counters.
func (ix *Index) Stats() metrics.Snapshot { return ix.stats.Snapshot() }

// ResetStats zeroes the maintenance counters.
func (ix *Index) ResetStats() { ix.stats.Reset() }

// Tuning returns the resolved configuration.
func (ix *Index) Tuning() index.Tuning { return ix.opts }

// Insert replicates the record at every node on its root-to-leaf path —
// D+1 DHT operations. Saturated nodes skip the append (no movement), and a
// node that reaches capacity saturates; the leaf level always stores.
func (ix *Index) Insert(rec spatial.Record) error {
	m := ix.opts.Dims
	if rec.Key.Dim() != m {
		return fmt.Errorf("dst: record has %d dims, index has %d", rec.Key.Dim(), m)
	}
	if !rec.Key.Valid() {
		return fmt.Errorf("dst: record key %v outside the unit cube", rec.Key)
	}
	z, err := bitlabel.PathLabelNoRoot(rec.Key, ix.opts.MaxDepth)
	if err != nil {
		return err
	}
	for depth := 0; depth <= z.Len(); depth++ {
		label := z.Prefix(depth)
		res, err := dht.Do(ix.d, labelKey(label), insertOp{Label: label, Rec: rec, Leaf: depth == z.Len(), Capacity: ix.opts.Capacity})
		if err != nil {
			return fmt.Errorf("dst: insert at %v: %w", label, err)
		}
		if stored, _ := res.(bool); stored {
			ix.stats.RecordsMoved.Inc()
		}
	}
	return nil
}

// Delete removes one matching record from every node on its path (D+1 DHT
// operations). Saturation is sticky, as in the original design.
func (ix *Index) Delete(key spatial.Point, data string) (bool, error) {
	m := ix.opts.Dims
	if key.Dim() != m {
		return false, fmt.Errorf("dst: key has %d dims, index has %d", key.Dim(), m)
	}
	z, err := bitlabel.PathLabelNoRoot(key, ix.opts.MaxDepth)
	if err != nil {
		return false, err
	}
	removedAny := false
	for depth := 0; depth <= z.Len(); depth++ {
		label := z.Prefix(depth)
		res, err := dht.Do(ix.d, labelKey(label), deleteOp{Key: key, Data: data})
		if err != nil {
			return false, fmt.Errorf("dst: delete at %v: %w", label, err)
		}
		removed, _ := res.(bool)
		removedAny = removedAny || removed
	}
	return removedAny, nil
}

// insertOp is one level of an insert as data: store Rec at the node Label
// unless the node is saturated, saturating a node below the leaf level that
// is full instead. Its result is whether Rec was stored.
type insertOp struct {
	Label    bitlabel.Label
	Rec      spatial.Record
	Leaf     bool
	Capacity int
}

// Run implements dht.Op.
func (op insertOp) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	n := node{Label: op.Label}
	if exists {
		var ok bool
		if n, ok = cur.(node); !ok || n.Saturated {
			return nil, false, false, nil
		}
	}
	if !op.Leaf && len(n.Records) >= op.Capacity {
		n.Saturated = true
		return n, true, false, nil
	}
	n.Records = append(append([]spatial.Record{}, n.Records...), op.Rec)
	return n, true, true, nil
}

// deleteOp is one level of a delete as data: take one record matching Key
// (and Data, when non-empty) out of the node. Its result is whether one went.
type deleteOp struct {
	Key  spatial.Point
	Data string
}

// Run implements dht.Op.
func (op deleteOp) Run(cur any, _ bool) (next any, write bool, result any, err error) {
	n, _ := cur.(node)
	for i, r := range n.Records {
		if slices.Equal(r.Key, op.Key) && (op.Data == "" || r.Data == op.Data) {
			n.Records = append(append([]spatial.Record{}, n.Records[:i]...), n.Records[i+1:]...)
			return n, true, true, nil
		}
	}
	return nil, false, false, nil
}

// Lookup answers an exact-match query with a single DHT-lookup at the leaf
// level — DST's strength.
func (ix *Index) Lookup(key spatial.Point) ([]spatial.Record, error) {
	m := ix.opts.Dims
	if key.Dim() != m {
		return nil, fmt.Errorf("dst: key has %d dims, index has %d", key.Dim(), m)
	}
	z, err := bitlabel.PathLabelNoRoot(key, ix.opts.MaxDepth)
	if err != nil {
		return nil, err
	}
	n, found, err := ix.getNode(z, nil)
	if err != nil || !found {
		return nil, err
	}
	var out []spatial.Record
	for _, r := range n.Records {
		if slices.Equal(r.Key, key) {
			out = append(out, r)
		}
	}
	return out, nil
}

func (ix *Index) getNode(l bitlabel.Label, probes *int) (node, bool, error) {
	if probes != nil {
		*probes++
	}
	v, found, err := ix.d.Get(labelKey(l))
	if err != nil {
		return node{}, false, fmt.Errorf("dst: get %v: %w", l, err)
	}
	if !found {
		return node{}, false, nil
	}
	n, ok := v.(node)
	if !ok {
		return node{}, false, fmt.Errorf("dst: key %v holds %T", l, v)
	}
	return n, true, nil
}
