package core

import (
	"errors"
	"fmt"
	"math/rand"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// LookupTrace reports the cost of one lookup operation: the number of DHT
// probes issued (the paper's bandwidth unit) — which, because the binary
// search is sequential, also equals its rounds of DHT-lookups.
type LookupTrace struct {
	Probes int
}

// Lookup locates the leaf bucket covering data key δ (paper §5): the
// candidate set is the prefixes of the root-prefixed interleaved path label
// of δ, and a binary search over candidate lengths probes fmd(candidate)
// keys. Each probe either finds the target, proves every candidate at or
// below some length is absent, or proves every candidate above some length
// is internal:
//
//   - a missing bucket at key fmd(c) means fmd(c) is not an internal node,
//     so the target is no longer than fmd(c);
//   - a found bucket whose label extends the probed candidate c proves c is
//     internal (the bucket is a corner cell of c, Theorem 1), pushing the
//     search deeper;
//   - a found bucket diverging from the path at depth cp proves every path
//     prefix through cp is internal and the candidate c is not, bounding
//     the search on both sides.
func (ix *Index) Lookup(key spatial.Point) (Bucket, error) {
	b, _, err := ix.LookupTraced(key)
	return b, err
}

// LookupTraced is Lookup returning probe accounting.
func (ix *Index) LookupTraced(key spatial.Point) (Bucket, LookupTrace, error) {
	var lt LookupTrace
	b, err := ix.lookup(key, &lt, 0)
	return b, lt, err
}

// lookup runs the §5 binary search for key, seeded by the leaf cache.
// parent, when tracing is enabled, nests the search's span under the
// caller's span.
func (ix *Index) lookup(key spatial.Point, lt *LookupTrace, parent trace.SpanID) (Bucket, error) {
	path, err := ix.pathLabel(key)
	if err != nil {
		return Bucket{}, err
	}
	return ix.lookupPath(key, path, ix.cacheView(path), lt, parent)
}

// pathLabel checks δ and returns its path label: the candidate set of §5 is
// the label's prefixes of length ≥ m+1.
func (ix *Index) pathLabel(key spatial.Point) (bitlabel.Label, error) {
	if key.Dim() != ix.opts.Dims {
		return bitlabel.Label{}, fmt.Errorf("%w: key has %d dims, index has %d", ErrDimension, key.Dim(), ix.opts.Dims)
	}
	if !key.Valid() {
		return bitlabel.Label{}, fmt.Errorf("core: key %v outside the unit cube", key)
	}
	path, err := bitlabel.PathLabel(key, ix.opts.MaxDepth)
	if err != nil {
		return bitlabel.Label{}, fmt.Errorf("core: path label: %w", err)
	}
	return path, nil
}

// lookupPath is lookup for a caller that holds δ's path label and the
// cache's view of it already: the search whose probe is a bucket Get.
func (ix *Index) lookupPath(key spatial.Point, path bitlabel.Label, v view, lt *LookupTrace, parent trace.SpanID) (Bucket, error) {
	var b Bucket
	if _, err := ix.searchPath(key, path, v, ix.getProbe(path, &b), lt, parent); err != nil {
		return Bucket{}, err
	}
	return b, nil
}

// getProbe is the lookup's probe: a bucket Get of the key, the bucket that
// covers δ left in *b.
func (ix *Index) getProbe(path bitlabel.Label, b *Bucket) probe {
	return func(_, key bitlabel.Label, parent trace.SpanID) (bitlabel.Label, bool, error) {
		got, found, err := ix.getBucketSpan(key, parent)
		if err != nil || !found || !got.Label.IsPrefixOf(path) {
			return got.Label, false, err
		}
		*b = got
		return got.Label, true, nil
	}
}

// A probe is what the §5 search sends to key = fmd(cand), the key of the
// candidate prefix cand: a bucket Get for a lookup, the write itself for a
// cached client's insert or delete. It reports the label of the leaf stored
// there — empty when the key holds nothing — and whether that leaf covers δ:
// the probe that does is the search's answer and, for a write, has landed.
// The §5 rules read nothing else of a probe.
type probe func(cand, key bitlabel.Label, parent trace.SpanID) (stored bitlabel.Label, covers bool, err error)

// searchPath runs the search for δ with the given probe and returns the
// label the covering probe reported. A search the cache bounded that ends in
// ErrNotFound was bounded by a prefix another client has since merged into
// a leaf (or ran into a split mid-flight, which Insert retries): it is
// counted stale and searched once more without the bound.
func (ix *Index) searchPath(key spatial.Point, path bitlabel.Label, v view, at probe, lt *LookupTrace, parent trace.SpanID) (leaf bitlabel.Label, err error) {
	tc := ix.opts.Trace
	if tc != nil {
		span := tc.Begin(parent, trace.KindLookup, "binsearch")
		parent = span
		defer func() {
			if err != nil {
				tc.End(span, trace.Int("probes", int64(lt.Probes)), trace.Str("error", err.Error()))
				return
			}
			tc.End(span, trace.Int("probes", int64(lt.Probes)), trace.Str("leaf", leaf.String()))
		}()
	}
	if ix.cache != nil && !v.hit {
		ix.stats.CacheMisses.Inc()
		if tc != nil {
			// Where the search starts: the length of the deepest path prefix
			// the cache knows internal, 0 for none.
			tc.Event(parent, trace.KindCache, "miss", trace.Int("bound", int64(v.bound)))
		}
	}
	leaf, err = ix.search(key, path, v, at, lt, parent)
	if v.bound > 0 && errors.Is(err, ErrNotFound) {
		ix.stats.CacheStale.Inc()
		ix.traceCache(parent, "stale")
		leaf, err = ix.search(key, path, view{}, at, lt, parent)
	}
	return leaf, err
}

// search is the §5 binary search over the prefixes of path. The cache's view
// seeds it: a hit makes the first probe go to the cached leaf; a bound
// raises lo past the prefixes known internal and makes the first probe the
// guess, clamped to [lo, hi]. Either way the probes after the first follow
// the unchanged §5 rules.
func (ix *Index) search(key spatial.Point, path bitlabel.Label, v view, at probe, lt *LookupTrace, parent trace.SpanID) (bitlabel.Label, error) {
	m := ix.opts.Dims
	lo, hi := m+1, path.Len()
	first := 0
	switch {
	case v.hit:
		first = v.leaf.Len()
	case v.bound > 0:
		lo, first = v.bound+1, v.guess
	}
	for iter := 0; iter <= ix.opts.MaxDepth+3 && lo <= hi; iter++ {
		mid := (lo + hi) / 2
		if iter == 0 && first > 0 {
			mid = min(max(first, lo), hi)
		}
		// The hit's probe. On an unchanged index it covers δ and the search
		// completes with a single DHT operation; a stale entry (the leaf split
		// or merged since) is evicted, and the probe's outcome still tightens
		// the bounds by the standard §5 rules.
		hinted := iter == 0 && v.hit
		cand := path.Prefix(mid)
		probeKey := bitlabel.Name(cand, m)
		lt.Probes++
		label, covers, err := at(cand, probeKey, parent)
		if err != nil {
			return bitlabel.Label{}, err
		}
		if covers {
			if hinted {
				ix.stats.CacheHits.Inc()
				ix.traceCache(parent, "hit")
			}
			ix.cacheLeaf(label)
			return label, nil
		}
		if hinted {
			// The cached leaf's key holds no bucket, or one that does not
			// cover δ: the leaf was restructured. Evict, keep searching.
			ix.stats.CacheStale.Inc()
			ix.traceCache(parent, "stale")
			ix.invalidateLeaf(cand)
		}
		if label.IsEmpty() {
			// probeKey is not internal: the target is at or above it.
			if probeKey.Len() < lo {
				return bitlabel.Label{}, fmt.Errorf("%w: probe %v contradicts bounds [%d,%d] for %v",
					ErrNotFound, probeKey, lo, hi, key)
			}
			hi = probeKey.Len()
			continue
		}
		cp := label.CommonPrefixLen(path)
		if cp >= mid {
			// cand is a prefix of the stored leaf, hence internal (Theorem 1:
			// the leaf named fmd(cand) is a corner cell of cand); in fact every
			// path prefix through cp is internal.
			lo = cp + 1
		} else {
			// cand is not internal (otherwise the named leaf would lie
			// inside it) and is not the target; the target is shorter.
			hi = mid - 1
			if cp+1 > lo {
				lo = cp + 1
			}
		}
	}
	return bitlabel.Label{}, fmt.Errorf("%w: search exhausted for %v", ErrNotFound, key)
}

// getBucket probes one DHT key, decoding the stored bucket.
func (ix *Index) getBucket(label bitlabel.Label) (Bucket, bool, error) {
	return ix.getBucketSpan(label, 0)
}

// getBucketSpan is getBucket recording one KindDHTOp span under parent when
// tracing is enabled; the span is handed down to the substrate so the retry
// layer can nest its attempt spans inside it.
func (ix *Index) getBucketSpan(label bitlabel.Label, parent trace.SpanID) (Bucket, bool, error) {
	var (
		v     any
		found bool
		err   error
	)
	if tc := ix.opts.Trace; tc != nil {
		span := tc.Begin(parent, trace.KindDHTOp, "get", trace.Str("label", label.String()))
		v, found, err = dht.GetWithSpan(ix.d, labelKey(label), span)
		endDHTOp(tc, span, found, err)
	} else {
		v, found, err = ix.d.Get(labelKey(label))
	}
	return decodeBucket(label, v, found, err)
}

// endDHTOp closes a DHT-op span with its outcome.
func endDHTOp(tc *trace.Collector, span trace.SpanID, found bool, err error) {
	switch {
	case err != nil:
		tc.End(span, trace.Str("error", err.Error()))
	case found:
		tc.End(span, trace.Int("found", 1))
	default:
		tc.End(span, trace.Int("found", 0))
	}
}

// decodeBucket converts a raw Get result into a bucket.
func decodeBucket(label bitlabel.Label, v any, found bool, err error) (Bucket, bool, error) {
	if err != nil {
		return Bucket{}, false, fmt.Errorf("core: get %v: %w", label, err)
	}
	if !found {
		return Bucket{}, false, nil
	}
	b, ok := v.(Bucket)
	if !ok {
		return Bucket{}, false, fmt.Errorf("core: key %v holds %T, not a bucket", label, v)
	}
	return b, true, nil
}

// traceCache records a lookup-cache event under the given span.
func (ix *Index) traceCache(parent trace.SpanID, outcome string) {
	if tc := ix.opts.Trace; tc != nil {
		tc.Event(parent, trace.KindCache, outcome)
	}
}

// Exact returns all records whose key equals δ exactly — the exact-match
// query of §5.
func (ix *Index) Exact(key spatial.Point) ([]spatial.Record, error) {
	b, err := ix.Lookup(key)
	if err != nil {
		return nil, err
	}
	var out []spatial.Record
	for i, n := 0, b.Load(); i < n; i++ {
		if samePoint(b.KeyAt(i), key) {
			out = append(out, b.RecordAt(i))
		}
	}
	return out, nil
}

func samePoint(a, b spatial.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EstimateDepth estimates the index tree's current depth by probing sample
// random points — the technique §5 cites for choosing the lookup bound D
// ("estimated by apriori knowledge or by probing certain values before
// query processing"). It returns the maximum leaf depth observed below the
// ordinary root; callers typically add a safety margin before using it as
// MaxDepth elsewhere. The probe points are drawn from a source seeded by
// Tuning.Seed (WithSeed), so repeated runs sample identically.
func (ix *Index) EstimateDepth(samples int) (int, error) {
	if samples < 1 {
		return 0, fmt.Errorf("core: samples must be ≥ 1, got %d", samples)
	}
	rng := rand.New(rand.NewSource(ix.opts.Seed))
	m := ix.opts.Dims
	maxDepth := 0
	for i := 0; i < samples; i++ {
		p := make(spatial.Point, m)
		for d := range p {
			p[d] = rng.Float64()
		}
		b, err := ix.Lookup(p)
		if err != nil {
			return 0, err
		}
		if depth := b.Label.Len() - (m + 1); depth > maxDepth {
			maxDepth = depth
		}
	}
	return maxDepth, nil
}
