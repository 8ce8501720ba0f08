// Package core implements m-LIGHT (multi-dimensional Lightweight Hash Tree
// over a DHT), the primary contribution of the ICDCS 2009 paper. It is an
// over-DHT index: it runs entirely above the generic dht.DHT interface and
// never modifies the substrate.
//
// # Structure (paper §3)
//
// Data keys are m-dimensional points in the unit cube, clustered by a space
// kd-tree that always halves cells at their spatial midpoint, cycling
// through the dimensions. The tree is decomposed into leaf buckets: each
// leaf λ stores its label (which encodes its whole local tree — ancestors
// and their siblings) and its data records. The bucket of leaf λ lives in
// the DHT under the label fmd(λ), where fmd is the m-dimensional naming
// function (bitlabel.Name). Because fmd bijectively maps leaves onto
// internal nodes (Theorem 4), every internal-node label hosts exactly one
// bucket, and because a freshly split leaf sends exactly one child to a new
// DHT key (Theorem 5), maintenance is incremental: half the work of a
// naive re-insertion.
//
// # Operations
//
//   - Lookup (§5): binary search over the candidate prefix set of the
//     point's interleaved path label, O(log D) DHT gets.
//   - Insert/Delete (§4.1): the lookup's search, then one append or remove
//     op run at the leaf's owner — with a leaf cache the op is the search's
//     probe — and InsertBatch one append op per touched leaf; leaf splits
//     relocate only the children not named to the old key, merges relocate
//     only one sibling.
//   - Data-aware splitting (§4.2): Algorithm 1 chooses the split subtree
//     minimising Σ(load−ε)², Theorem 6's optimal load balance.
//   - Range queries (§6): the query is forwarded to the corner cell of the
//     range's lowest common ancestor and recursively decomposed over branch
//     nodes (Algorithms 2–3); a parallel variant trades bandwidth for
//     latency with a lookahead factor h.
package core

import (
	"errors"
	"fmt"
	"sync"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
)

// SplitStrategy selects how overfull leaf buckets divide (paper §4). It is
// the shared strategy type of the index contract package.
type SplitStrategy = index.SplitStrategy

const (
	// SplitThreshold is the conventional θsplit/θmerge strategy (§4.1).
	SplitThreshold = index.SplitThreshold
	// SplitDataAware is the data-aware strategy of §4.2: buckets split
	// according to the optimal split subtree of Algorithm 1.
	SplitDataAware = index.SplitDataAware
)

// Options and FromTuning exist for cmd/mlight-perf alone: the harness
// compiles core.New(d, core.Options{}) and core.New(d, core.FromTuning(t))
// and is frozen until ROADMAP item 6's second PR rewrites it, which deletes
// both. Every other caller says index.Tuning.
type Options = index.Tuning

// FromTuning is the identity; see Options.
func FromTuning(t index.Tuning) index.Tuning { return t }

// Bucket is one leaf bucket of the index (§3.3): the label store (the leaf
// label λ, from which the whole local tree is derived) and the record
// store. Buckets are stored in the DHT under key fmd(λ). A bucket is a
// read-only view of its records' encodings, back to back in one byte slice
// exactly as the bucket format writes them (see columnar.go), behind the
// NewBucket/Records/KeyAt/DataAt/Append accessors: an in-process store and a
// daemon holding bytes keep the same thing. The zero value with a Label is a
// valid empty bucket.
type Bucket struct {
	// Label is the leaf's kd-tree label λ.
	Label bitlabel.Label
	// n is the record count, enc the records' encodings; at is where each
	// record starts in enc, built on the first random access (offsets).
	n   int
	enc []byte
	at  []int
	// x is the bucket's extension (move.go): the move it is in, the merges
	// behind it, whether it is a tombstone; nil for a plain bucket, which is
	// every bucket of a tree that never merged, between moves.
	x *extension
}

// Key returns the DHT key the bucket lives under: fmd(λ).
func (b Bucket) Key(m int) dht.Key {
	return labelKey(bitlabel.Name(b.Label, m))
}

// labelKeyPrefix starts every DHT key the index stores a bucket under.
const labelKeyPrefix = "mlight/"

// labelKey converts a node label into a DHT key: "mlight/" and the label's
// Key, framed in one stack array so that the string is the one allocation.
// Every probe of every operation names its bucket through here.
func labelKey(l bitlabel.Label) dht.Key {
	var buf [len(labelKeyPrefix) + 9]byte
	return dht.Key(l.AppendKey(append(buf[:0], labelKeyPrefix...)))
}

// Errors reported by the index.
var (
	// ErrNotFound is returned by lookups that cannot locate a covering
	// bucket: the index is missing or broken. A concurrent split or merge
	// never causes it (move.go).
	ErrNotFound = errors.New("core: no bucket covers the key")
	// ErrDimension is returned when an argument's dimensionality does not
	// match the index.
	ErrDimension = errors.New("core: dimensionality mismatch")
)

// Index is the m-LIGHT implementation of the shared Querier contract.
var _ index.Querier = (*Index)(nil)

// Index is an m-LIGHT index client bound to a DHT substrate. All methods
// are safe for concurrent use if the substrate is; the experiments drive it
// single-threaded for determinism.
type Index struct {
	opts  index.Tuning
	raw   dht.DHT       // uncounted: local rewrites on the owning peer
	d     *dht.Counting // counted: operations that cross the DHT
	stats *metrics.IndexStats
	// resilience meters the retry layer when Tuning.Retry is set; nil
	// otherwise.
	resilience *metrics.ResilienceStats
	// cache is the client-side leaf-label lookup cache; nil when disabled.
	cache *leafCache
	// writer is the lazily created group-commit insert engine (see Writer).
	writerOnce sync.Once
	writer     *Writer
}

// attach resolves t and builds an index client over d without touching the
// substrate: the shared first half of New and RestoreInto.
func attach(d dht.DHT, t index.Tuning) (*Index, error) {
	t, err := t.Normalize()
	if err != nil {
		return nil, err
	}
	if t.Dims+1+t.MaxDepth > bitlabel.MaxLen {
		return nil, fmt.Errorf("core: MaxDepth %d out of range for m=%d (need m+1+D ≤ %d)",
			t.MaxDepth, t.Dims, bitlabel.MaxLen)
	}
	s := index.Stack(d, t)
	ix := &Index{opts: t, raw: s.Raw, d: s.Counted, stats: s.Stats, resilience: s.Resilience}
	if t.CacheSize > 0 {
		ix.cache = newLeafCache(t.CacheSize, t.Dims)
	}
	return ix, nil
}

// New creates an index client over d and bootstraps the root bucket if the
// index does not exist yet. Several clients may attach to the same
// substrate; only the first creates the root.
func New(d dht.DHT, t index.Tuning) (*Index, error) {
	ix, err := attach(d, t)
	if err != nil {
		return nil, err
	}
	root := bitlabel.Root(ix.opts.Dims)
	// Bootstrap idempotently: create the root bucket only when absent.
	if _, err := dht.Do(ix.raw, labelKey(bitlabel.Name(root, ix.opts.Dims)), dht.PutIfAbsent{Value: Bucket{Label: root}}); err != nil {
		return nil, fmt.Errorf("core: bootstrap root bucket: %w", err)
	}
	return ix, nil
}

// Tuning returns the index configuration (with defaults resolved).
func (ix *Index) Tuning() index.Tuning { return ix.opts }

// Dims returns the index dimensionality m.
func (ix *Index) Dims() int { return ix.opts.Dims }

// Stats returns a snapshot of the maintenance counters.
func (ix *Index) Stats() metrics.Snapshot { return ix.stats.Snapshot() }

// ResetStats zeroes the maintenance counters.
func (ix *Index) ResetStats() { ix.stats.Reset() }

// ResilienceStats returns the retry-layer counters, or nil when
// Tuning.Retry is unset.
func (ix *Index) ResilienceStats() *metrics.ResilienceStats { return ix.resilience }

// DHT returns the counted substrate view used by the index.
func (ix *Index) DHT() dht.DHT { return ix.d }

// Buckets returns all leaf buckets, in unspecified order. It requires an
// enumerable substrate and is intended for measurements and tests.
func (ix *Index) Buckets() ([]Bucket, error) {
	s, err := ix.leaves()
	return s.leaves, err
}

// storeWalk is what leaves finds: the leaves the stored buckets hold, the
// stored buckets of each kind, and the frozen pieces of a move under way
// (move.go) among the leaves, each with the key of the bucket whose mark holds
// it. A moving bucket holds its stayer, if it splits, and each frozen piece no
// other stored bucket holds yet; a quiescent tree has no moving bucket.
type storeWalk struct {
	leaves                   []Bucket
	live, tombstones, marked int
	frozen                   map[bitlabel.Label]dht.Key
}

// leaves walks the store once.
func (ix *Index) leaves() (storeWalk, error) {
	e, ok := ix.raw.(dht.Enumerator)
	if !ok {
		return storeWalk{}, dht.ErrNotEnumerable
	}
	var s storeWalk
	stored := make(map[dht.Key]Bucket)
	var moving []dht.Key
	err := e.Range(func(k dht.Key, v any) bool {
		b, isBucket := v.(Bucket)
		switch {
		case !isBucket:
			return true
		case b.mark() != nil:
			s.marked++
			moving = append(moving, k)
			if !b.mark().retire {
				s.leaves = append(s.leaves, b.unmarked())
			}
		case b.tombstone():
			s.tombstones++
		default:
			s.live++
			s.leaves = append(s.leaves, b)
		}
		stored[k] = b
		return true
	})
	if err != nil {
		return storeWalk{}, err
	}
	// A frozen piece is a leaf while the key it goes to holds nothing of it:
	// no bucket whose cell meets the piece's, bar one it supersedes, and no
	// tombstone of a merge that took the piece in after it arrived.
	for _, k := range moving {
		for _, h := range stored[k].hops() {
			at, held := stored[labelKey(h.target(ix.opts.Dims))]
			l := at.reported()
			switch {
			case held && at.tombstone():
				if h.gone(at) {
					continue
				}
			case held && (l.IsPrefixOf(h.piece.Label) || h.piece.Label.IsPrefixOf(l)) && !h.supersedes(at):
				continue
			}
			if s.frozen == nil {
				s.frozen = make(map[bitlabel.Label]dht.Key)
			}
			s.frozen[h.piece.Label] = k
			s.leaves = append(s.leaves, h.piece)
		}
	}
	return s, nil
}

// Size returns the total number of records across all buckets (requires an
// enumerable substrate).
func (ix *Index) Size() (int, error) {
	bs, err := ix.Buckets()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, b := range bs {
		n += b.Load()
	}
	return n, nil
}

// Census is the tree's shape as the store holds it, the paper's Fig. 6.
type Census struct {
	Leaves, Empty, Records int // the tree size, its leaves holding no record, their records
	// Live, Tombstones and Marked partition the stored buckets: plain leaves,
	// the tombstones merges leave, and buckets a move has marked (move.go).
	Live, Tombstones, Marked int
	Depths                   []int // Depths[d] counts the leaves d levels below the root
	MaxDepth                 int
	// PeerBuckets[i] and PeerRecords[i] are the leaves and records the i-th
	// peer given holds, and Variance is the normalised variance of
	// PeerRecords (metrics.NormalizedVariance); all are empty without an owner.
	PeerBuckets, PeerRecords []int
	Variance                 float64
}

// Census counts the tree's shape in one pass over the store, the one
// Buckets makes, through the uncounted view. owner names the peer among
// peers whose store holds a key (a frozen piece is held under the key of the
// bucket whose mark holds it) and must not route or have any other side
// effect: dht.Local.Owner, or on an overlay the managed node whose primary
// store holds the key. A nil owner leaves the per-peer fields empty.
func (ix *Index) Census(owner func(dht.Key) (string, error), peers []string) (Census, error) {
	s, err := ix.leaves()
	if err != nil {
		return Census{}, err
	}
	c := Census{Leaves: len(s.leaves), Live: s.live, Tombstones: s.tombstones, Marked: s.marked}
	slot := make(map[string]int, len(peers))
	var load []float64
	if owner != nil {
		for i, p := range peers {
			slot[p] = i
		}
		c.PeerBuckets, c.PeerRecords, load = make([]int, len(peers)), make([]int, len(peers)), make([]float64, len(peers))
	}
	root := bitlabel.Root(ix.opts.Dims).Len()
	for _, b := range s.leaves {
		c.Records += b.Load()
		if b.Load() == 0 {
			c.Empty++
		}
		d := b.Label.Len() - root
		for len(c.Depths) <= d {
			c.Depths = append(c.Depths, 0)
		}
		c.Depths[d]++
		if owner == nil {
			continue
		}
		key, frozen := s.frozen[b.Label]
		if !frozen {
			key = b.Key(ix.opts.Dims)
		}
		p, err := owner(key)
		if err != nil {
			return Census{}, fmt.Errorf("core: census: owner of %q: %w", key, err)
		}
		i, ok := slot[p]
		if !ok {
			return Census{}, fmt.Errorf("core: census: key %q is held by %q, not one of the %d peers given", key, p, len(peers))
		}
		c.PeerBuckets[i]++
		c.PeerRecords[i] += b.Load()
		load[i] += float64(b.Load())
	}
	c.MaxDepth, c.Variance = len(c.Depths)-1, metrics.NormalizedVariance(load)
	return c, nil
}
