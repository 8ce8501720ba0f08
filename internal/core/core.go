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
//   - Insert/Delete (§4.1): one lookup plus an Apply at the bucket; leaf
//     splits relocate only the children not named to the old key, merges
//     relocate only one sibling.
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
// and is frozen until ROADMAP item 1b rewrites it, which deletes both. Every
// other caller says index.Tuning.
type Options = index.Tuning

// FromTuning is the identity; see Options.
func FromTuning(t index.Tuning) index.Tuning { return t }

// Bucket is one leaf bucket of the index (§3.3): the label store (the leaf
// label λ, from which the whole local tree is derived) and the record
// store. Buckets are stored in the DHT under key fmd(λ). Records live in a
// columnar arena layout (see columnar.go) behind the NewBucket/Records/
// KeyAt/DataAt/Append accessors, so multi-million-record runs pay 4 bytes
// of per-record overhead instead of two headers and two heap objects. The
// zero value with a Label is a valid empty bucket.
type Bucket struct {
	// Label is the leaf's kd-tree label λ.
	Label bitlabel.Label
	// rs is the columnar record store; access through the Bucket methods.
	rs recs
}

// Key returns the DHT key the bucket lives under: fmd(λ).
func (b Bucket) Key(m int) dht.Key {
	return labelKey(bitlabel.Name(b.Label, m))
}

// labelKey converts a node label into a DHT key.
func labelKey(l bitlabel.Label) dht.Key {
	return dht.Key("mlight/" + l.Key())
}

// Errors reported by the index.
var (
	// ErrNotFound is returned by lookups that cannot locate a covering
	// bucket — the index is missing or inconsistent.
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
	err = ix.raw.Apply(labelKey(bitlabel.Name(root, ix.opts.Dims)), func(cur any, exists bool) (any, bool) {
		if exists {
			return cur, true
		}
		return Bucket{Label: root}, true
	})
	if err != nil {
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
	e, ok := ix.raw.(dht.Enumerator)
	if !ok {
		return nil, dht.ErrNotEnumerable
	}
	var out []Bucket
	err := e.Range(func(k dht.Key, v any) bool {
		if b, isBucket := v.(Bucket); isBucket {
			out = append(out, b)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
