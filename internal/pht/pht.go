// Package pht implements the Prefix Hash Tree (Ramabhadran et al., PODC
// 2004; Chawathe et al., SIGCOMM 2005) over the generic dht.DHT interface —
// the first over-DHT index and m-LIGHT's main baseline. Multi-dimensional
// keys are linearised with the z-order space-filling curve, the multi-
// dimensional variant the SIGCOMM paper describes and the m-LIGHT paper
// compares against.
//
// PHT is a binary trie over key prefixes. Every trie node lives at the DHT
// key of its prefix label; leaves hold up to B records, internal nodes are
// pure routing markers holding no data. Consequences measured by the
// m-LIGHT evaluation:
//
//   - a leaf split writes BOTH children to fresh DHT keys (every record
//     moves), where m-LIGHT's naming keeps one child in place;
//   - range queries must traverse down to leaves through marker probes,
//     where m-LIGHT's buckets-at-internal-labels answer from corner cells.
//
// Lookups use the same binary search over prefix lengths as the original
// paper: a probe distinguishes leaf / internal / absent and halves the
// candidate range.
package pht

import (
	"errors"
	"fmt"
	"slices"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
)

// nodeKind distinguishes trie node roles.
type nodeKind int

const (
	kindLeaf nodeKind = iota + 1
	kindInternal
)

// node is the stored value of one trie node.
type node struct {
	Kind    nodeKind
	Label   bitlabel.Label
	Records []spatial.Record
}

// ErrNotFound is returned when no leaf covers a key (inconsistent index).
var ErrNotFound = errors.New("pht: no leaf covers the key")

// Index is a PHT client bound to a DHT substrate.
type Index struct {
	opts  index.Tuning
	raw   dht.DHT
	d     *dht.Counting
	stats *metrics.IndexStats
}

var _ index.Querier = (*Index)(nil)

// New creates a PHT client over d, bootstrapping the root leaf when the
// trie does not exist yet. Of t it reads Dims, MaxDepth (bits of the z-order
// key), Capacity (B), MergeThreshold, Retry and Trace.
func New(d dht.DHT, t index.Tuning) (*Index, error) {
	t, err := t.Normalize()
	if err != nil {
		return nil, err
	}
	if t.MaxDepth > bitlabel.MaxLen {
		return nil, fmt.Errorf("pht: MaxDepth %d out of range (need D ≤ %d)", t.MaxDepth, bitlabel.MaxLen)
	}
	s := index.Stack(d, t)
	ix := &Index{opts: t, raw: s.Raw, d: s.Counted, stats: s.Stats}
	err = ix.raw.Apply(labelKey(bitlabel.Empty), func(cur any, exists bool) (any, bool) {
		if exists {
			return cur, true
		}
		return node{Kind: kindLeaf, Label: bitlabel.Empty}, true
	})
	if err != nil {
		return nil, fmt.Errorf("pht: bootstrap root: %w", err)
	}
	return ix, nil
}

func labelKey(l bitlabel.Label) dht.Key {
	return dht.Key("pht/" + l.Key())
}

// Stats returns a snapshot of the maintenance counters.
func (ix *Index) Stats() metrics.Snapshot { return ix.stats.Snapshot() }

// ResetStats zeroes the maintenance counters.
func (ix *Index) ResetStats() { ix.stats.Reset() }

// Tuning returns the resolved configuration.
func (ix *Index) Tuning() index.Tuning { return ix.opts }

// zLabel computes the depth-D z-order label of a point.
func (ix *Index) zLabel(p spatial.Point) (bitlabel.Label, error) {
	return bitlabel.PathLabelNoRoot(p, ix.opts.MaxDepth)
}

// getNode probes one trie node.
func (ix *Index) getNode(l bitlabel.Label, probes *int) (node, bool, error) {
	if probes != nil {
		*probes++
	}
	v, found, err := ix.d.Get(labelKey(l))
	if err != nil {
		return node{}, false, fmt.Errorf("pht: get %v: %w", l, err)
	}
	if !found {
		return node{}, false, nil
	}
	n, ok := v.(node)
	if !ok {
		return node{}, false, fmt.Errorf("pht: key %v holds %T", l, v)
	}
	return n, true, nil
}

// LookupTrace reports the probe count of one lookup.
type LookupTrace struct {
	Probes int
}

// Lookup finds the leaf whose prefix covers the point, by binary search
// over prefix lengths: an absent probe means the leaf is shallower, an
// internal marker means deeper, a leaf ends the search.
func (ix *Index) Lookup(p spatial.Point) ([]spatial.Record, error) {
	n, _, err := ix.lookupLeaf(p)
	if err != nil {
		return nil, err
	}
	var out []spatial.Record
	for _, r := range n.Records {
		if slices.Equal(r.Key, p) {
			out = append(out, r)
		}
	}
	return out, nil
}

func (ix *Index) lookupLeaf(p spatial.Point) (node, LookupTrace, error) {
	var trace LookupTrace
	if p.Dim() != ix.opts.Dims {
		return node{}, trace, fmt.Errorf("pht: point has %d dims, index has %d", p.Dim(), ix.opts.Dims)
	}
	if !p.Valid() {
		return node{}, trace, fmt.Errorf("pht: point %v outside the unit cube", p)
	}
	z, err := ix.zLabel(p)
	if err != nil {
		return node{}, trace, err
	}
	lo, hi := 0, z.Len()
	for iter := 0; iter <= ix.opts.MaxDepth+2 && lo <= hi; iter++ {
		mid := (lo + hi) / 2
		n, found, err := ix.getNode(z.Prefix(mid), &trace.Probes)
		if err != nil {
			return node{}, trace, err
		}
		switch {
		case !found:
			hi = mid - 1
		case n.Kind == kindLeaf:
			return n, trace, nil
		default: // internal marker
			lo = mid + 1
		}
	}
	return node{}, trace, fmt.Errorf("%w: %v", ErrNotFound, p)
}

// Insert adds a record: one lookup, one apply at the leaf, and on overflow
// a split that rewrites the leaf as a marker and writes every resulting
// leaf (including intermediate markers) to fresh DHT keys — all records
// move, PHT's structural handicap against m-LIGHT.
func (ix *Index) Insert(rec spatial.Record) error {
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		leaf, _, err := ix.lookupLeaf(rec.Key)
		if err != nil {
			return err
		}
		overflow, stale, err := ix.insertAt(leaf.Label, rec)
		if err != nil {
			return err
		}
		if stale {
			continue
		}
		ix.stats.RecordsMoved.Inc()
		if overflow != nil {
			if err := ix.split(*overflow); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("pht: insert %v: too many conflicting node changes", rec.Key)
}

// insertAt appends the record at the leaf; when the leaf overflows it is
// returned so the caller can split it.
func (ix *Index) insertAt(label bitlabel.Label, rec spatial.Record) (overflow *node, stale bool, err error) {
	applyErr := ix.d.Apply(labelKey(label), func(cur any, exists bool) (any, bool) {
		// A substrate may run the transform again (a lost CAS, a retry): the
		// verdict is the last run's alone.
		overflow, stale = nil, false
		if !exists {
			stale = true
			return nil, false
		}
		n, ok := cur.(node)
		if !ok || n.Kind != kindLeaf || n.Label != label {
			stale = true
			return cur, true
		}
		if !prefixCovers(n.Label, rec.Key, ix.opts.MaxDepth, ix.opts.Dims) {
			stale = true
			return cur, true
		}
		n.Records = append(append([]spatial.Record{}, n.Records...), rec)
		if n.Load() > ix.opts.Capacity && n.Label.Len() < ix.opts.MaxDepth {
			snapshot := n
			overflow = &snapshot
		}
		return n, true
	})
	if applyErr != nil {
		return nil, false, fmt.Errorf("pht: insert apply at %v: %w", label, applyErr)
	}
	return overflow, stale, nil
}

// Load returns the number of records in the node.
func (n node) Load() int { return len(n.Records) }

// split converts an overflowing leaf into an internal marker and
// distributes its records over a fresh leaf frontier. The old node is
// rewritten in place (its peer does that locally); every new node —
// intermediate markers and all frontier leaves — costs a DHT put, and
// every record moves.
func (ix *Index) split(overfull node) error {
	markers, leaves := ix.frontier(overfull)
	// Rewrite the old node as a marker locally.
	if err := ix.raw.Put(labelKey(overfull.Label), node{Kind: kindInternal, Label: overfull.Label}); err != nil {
		return fmt.Errorf("pht: split rewrite %v: %w", overfull.Label, err)
	}
	for _, m := range markers {
		if m.Label == overfull.Label {
			continue
		}
		if err := ix.d.Put(labelKey(m.Label), m); err != nil {
			return fmt.Errorf("pht: split marker %v: %w", m.Label, err)
		}
	}
	for _, leaf := range leaves {
		if err := ix.d.Put(labelKey(leaf.Label), leaf); err != nil {
			return fmt.Errorf("pht: split leaf %v: %w", leaf.Label, err)
		}
		ix.stats.RecordsMoved.Add(int64(leaf.Load()))
	}
	ix.stats.Splits.Add(int64(len(markers)))
	return nil
}

// frontier recursively splits the node until every leaf fits (or depth runs
// out), returning the internal markers created and the final leaves.
func (ix *Index) frontier(n node) (markers, leaves []node) {
	if n.Load() <= ix.opts.Capacity || n.Label.Len() >= ix.opts.MaxDepth {
		return nil, []node{{Kind: kindLeaf, Label: n.Label, Records: n.Records}}
	}
	markers = append(markers, node{Kind: kindInternal, Label: n.Label})
	var left, right node
	left.Kind, right.Kind = kindLeaf, kindLeaf
	left.Label = n.Label.MustAppend(0)
	right.Label = n.Label.MustAppend(1)
	bit := n.Label.Len() // next z-order bit decides the side
	for _, r := range n.Records {
		z, err := ix.zLabel(r.Key)
		if err != nil || bit >= z.Len() {
			left.Records = append(left.Records, r)
			continue
		}
		if z.At(bit) == 0 {
			left.Records = append(left.Records, r)
		} else {
			right.Records = append(right.Records, r)
		}
	}
	lm, ll := ix.frontier(left)
	rm, rl := ix.frontier(right)
	markers = append(markers, lm...)
	markers = append(markers, rm...)
	leaves = append(leaves, ll...)
	leaves = append(leaves, rl...)
	return markers, leaves
}

// prefixCovers reports whether a z-order prefix covers the point.
func prefixCovers(prefix bitlabel.Label, p spatial.Point, maxDepth, m int) bool {
	z, err := bitlabel.PathLabelNoRoot(p, maxDepth)
	if err != nil {
		return false
	}
	return prefix.IsPrefixOf(z)
}
