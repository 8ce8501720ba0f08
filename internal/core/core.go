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
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/trace"
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

// Options configures an Index. The zero value of each field selects the
// listed default.
type Options struct {
	// Dims is the data dimensionality m. Default 2.
	Dims int
	// MaxDepth is D, the maximum index-tree depth below the ordinary root;
	// the lookup binary search runs over candidate labels of length up to
	// m+1+D (§5). Default 28, the paper's evaluation setting.
	MaxDepth int
	// ThetaSplit is the leaf capacity for threshold splitting. Default 100.
	ThetaSplit int
	// ThetaMerge triggers a merge when a sibling leaf pair jointly holds
	// fewer records (§4.1 suggests θsplit/2). Default ThetaSplit/2.
	ThetaMerge int
	// Strategy selects the splitting strategy. Default SplitThreshold.
	Strategy SplitStrategy
	// Epsilon is the expected per-bucket load ε for SplitDataAware.
	// Default 70, the paper's Fig. 6 setting.
	Epsilon int
	// MaxInFlight caps the number of concurrently outstanding DHT probes
	// per query round; it is handed to the substrate with each round's
	// batch (dht.GetBatch). 1 forces fully sequential execution (every probe
	// on the calling goroutine); larger values let each round's frontier —
	// branch subqueries plus the h lookahead pieces — overlap, so measured
	// latency tracks Rounds instead of Lookups. The cap changes only
	// execution, never the Lookups/Rounds accounting. Default 16.
	MaxInFlight int
	// CacheSize enables the client-side leaf-label lookup cache: an LRU of
	// recently resolved leaves that seeds the §5 binary search, resolving a
	// repeat lookup on an unchanged index with a single verification probe.
	// Entries observed stale (the leaf split or merged) are evicted and the
	// search falls back to the standard bounds, so the cache never serves
	// stale buckets. 0 disables the cache (the default, preserving the
	// paper experiments' probe accounting).
	CacheSize int
	// Retry, when non-nil, interposes a dht.Resilient fault-tolerance layer
	// between the index and the substrate: every DHT operation is retried
	// under the policy's backoff/attempt budget and per-owner circuit
	// breakers, so queries and maintenance survive transient loss. The
	// logical operation accounting (DHTLookups etc.) is unchanged — retries
	// are metered separately, see ResilienceStats. Nil (the default) leaves
	// the substrate unwrapped.
	Retry *dht.RetryPolicy
	// Trace, when non-nil, records an operation trace of every query into
	// the collector: query → batch round → probe → DHT op → retry attempt
	// spans, plus lookup searches and cache events. Nil (the default)
	// disables tracing entirely; every collection point is a nil check, so
	// a disabled trace costs nothing.
	Trace *trace.Collector
	// Sleep is the sleeper maintenance uses to back off between
	// conflicting insert attempts (a concurrent split's relocated buckets
	// become visible within a few put operations). Nil selects time.Sleep;
	// tests inject dht.NoSleep so retries are deterministic and free, the
	// same convention RetryPolicy.Sleep follows.
	Sleep func(time.Duration)
	// Seed seeds the index's internal randomness — the depth-probe sampling
	// of EstimateDepth. The index never reads the global rand source or the
	// wall clock, so any fixed Seed (including the zero value) makes runs
	// replayable.
	Seed int64
}

// Apply implements index.Option: an Options value used as a functional
// option overwrites the whole tuning, so place it before any With*
// refinements.
func (o Options) Apply(t *index.Tuning) {
	*t = index.Tuning{
		Dims:           o.Dims,
		MaxDepth:       o.MaxDepth,
		Capacity:       o.ThetaSplit,
		MergeThreshold: o.ThetaMerge,
		Strategy:       o.Strategy,
		Epsilon:        o.Epsilon,
		MaxInFlight:    o.MaxInFlight,
		CacheSize:      o.CacheSize,
		Retry:          o.Retry,
		Trace:          o.Trace,
		Sleep:          o.Sleep,
		Seed:           o.Seed,
	}
}

// FromTuning maps the shared tuning surface onto this package's Options.
func FromTuning(t index.Tuning) Options {
	return Options{
		Dims:        t.Dims,
		MaxDepth:    t.MaxDepth,
		ThetaSplit:  t.Capacity,
		ThetaMerge:  t.MergeThreshold,
		Strategy:    t.Strategy,
		Epsilon:     t.Epsilon,
		MaxInFlight: t.MaxInFlight,
		CacheSize:   t.CacheSize,
		Retry:       t.Retry,
		Trace:       t.Trace,
		Sleep:       t.Sleep,
		Seed:        t.Seed,
	}
}

func (o Options) withDefaults() Options {
	if o.Dims == 0 {
		o.Dims = 2
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 28
	}
	if o.ThetaSplit == 0 {
		o.ThetaSplit = 100
	}
	if o.ThetaMerge == 0 {
		o.ThetaMerge = o.ThetaSplit / 2
	}
	if o.Strategy == 0 {
		o.Strategy = SplitThreshold
	}
	if o.Epsilon == 0 {
		o.Epsilon = 70
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = dht.DefaultMaxInFlight
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

func (o Options) validate() error {
	if o.Dims < 1 {
		return fmt.Errorf("core: Dims must be ≥ 1, got %d", o.Dims)
	}
	if o.MaxDepth < 1 || o.Dims+1+o.MaxDepth > bitlabel.MaxLen {
		return fmt.Errorf("core: MaxDepth %d out of range for m=%d (need m+1+D ≤ %d)",
			o.MaxDepth, o.Dims, bitlabel.MaxLen)
	}
	if o.ThetaSplit < 1 {
		return fmt.Errorf("core: ThetaSplit must be ≥ 1, got %d", o.ThetaSplit)
	}
	if o.ThetaMerge < 0 || o.ThetaMerge >= o.ThetaSplit {
		return fmt.Errorf("core: need 0 ≤ ThetaMerge < ThetaSplit, got %d, %d", o.ThetaMerge, o.ThetaSplit)
	}
	if o.MaxInFlight < 1 {
		return fmt.Errorf("core: MaxInFlight must be ≥ 1, got %d", o.MaxInFlight)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("core: CacheSize must be ≥ 0, got %d", o.CacheSize)
	}
	switch o.Strategy {
	case SplitThreshold:
	case SplitDataAware:
		if o.Epsilon < 1 {
			return fmt.Errorf("core: Epsilon must be ≥ 1 for data-aware splitting, got %d", o.Epsilon)
		}
	default:
		return fmt.Errorf("core: unknown split strategy %v", o.Strategy)
	}
	return nil
}

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
	opts  Options
	raw   dht.DHT       // uncounted: local rewrites on the owning peer
	d     *dht.Counting // counted: operations that cross the DHT
	stats *metrics.IndexStats
	// resilience meters the retry layer when Options.Retry is set; nil
	// otherwise.
	resilience *metrics.ResilienceStats
	// cache is the client-side leaf-label lookup cache; nil when disabled.
	cache *leafCache
	// writer is the lazily created group-commit insert engine (see Writer).
	writerOnce sync.Once
	writer     *Writer
}

// New creates an index client over d and bootstraps the root bucket if the
// index does not exist yet. Several clients may attach to the same
// substrate; only the first creates the root.
func New(d dht.DHT, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stats := &metrics.IndexStats{}
	ix := &Index{opts: opts, stats: stats}
	if opts.Retry != nil {
		// The resilient layer sits below Counting: a logical operation is
		// charged once no matter how many attempts it takes. All index
		// traffic — counted operations and local rewrites alike — flows
		// through it.
		ix.resilience = &metrics.ResilienceStats{}
		res := dht.NewResilient(d, *opts.Retry, ix.resilience)
		res.SetTracer(opts.Trace)
		d = res
	}
	ix.raw = d
	ix.d = dht.NewCounting(d, stats)
	if opts.CacheSize > 0 {
		ix.cache = newLeafCache(opts.CacheSize)
	}
	root := bitlabel.Root(opts.Dims)
	// Bootstrap idempotently: create the root bucket only when absent.
	err := ix.raw.Apply(labelKey(bitlabel.Name(root, opts.Dims)), func(cur any, exists bool) (any, bool) {
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

// Options returns the index configuration (with defaults resolved).
func (ix *Index) Options() Options { return ix.opts }

// Dims returns the index dimensionality m.
func (ix *Index) Dims() int { return ix.opts.Dims }

// Stats returns a snapshot of the maintenance counters.
func (ix *Index) Stats() metrics.Snapshot { return ix.stats.Snapshot() }

// ResetStats zeroes the maintenance counters.
func (ix *Index) ResetStats() { ix.stats.Reset() }

// ResilienceStats returns the retry-layer counters, or nil when
// Options.Retry is unset.
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
