package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// This file pins the round engine to the recursive reference implementation
// it replaced (kept below verbatim, renamed old*). On a static index the two
// must agree:
//
//   - Records: identical, in identical order, for every h — the engine's
//     execution-tree DFS reproduces the recursion's depth-first order.
//   - Rounds: identical for every h — a batch barrier corresponds exactly
//     to one level of the recursion's parallel-step accounting.
//   - Lookups: identical for every h. On a speculative overshoot the
//     engine probes all intermediate-ancestor candidates in one round's
//     batch but charges what the reference's sequential early-exit scan pays
//     (see resolveCover), so no over-probing is ever charged.

// oldQueryResult mirrors what the reference returns for comparison.
func runOldRangeQuery(ix *Index, q spatial.Rect, ctx queryCtx) (*QueryResult, error) {
	m := ix.opts.Dims
	if q.Dim() != m {
		return nil, fmt.Errorf("%w: query has %d dims, index has %d", ErrDimension, q.Dim(), m)
	}
	if _, err := spatial.NewRect(q.Lo, q.Hi); err != nil {
		return nil, fmt.Errorf("core: invalid query rectangle: %w", err)
	}
	res := &QueryResult{}
	lca, err := spatial.LCALabel(q, m, ix.opts.MaxDepth)
	if err != nil {
		return nil, err
	}
	b, found, err := ix.getBucket(bitlabel.Name(lca, m))
	res.Lookups++
	if err != nil {
		return nil, err
	}
	if !found {
		leaf, trace, err := ix.LookupTraced(clampPoint(q.Lo))
		if err != nil {
			return nil, err
		}
		res.Lookups += trace.Probes
		res.Rounds = 1 + trace.Probes
		res.Records = filterRecords(leaf, q, ctx.shape)
		return res, nil
	}
	recs, rounds, lookups, err := oldProcess(ix, q, lca, b, ctx)
	if err != nil {
		return nil, err
	}
	res.Records = append(res.Records, recs...)
	res.Lookups += lookups
	res.Rounds = 1 + rounds
	return res, nil
}

func oldProcess(ix *Index, q spatial.Rect, beta bitlabel.Label, b Bucket, ctx queryCtx) (records []spatial.Record, rounds, lookups int, err error) {
	m := ix.opts.Dims
	records = filterRecords(b, q, ctx.shape)
	leafRegion, err := spatial.RegionOf(b.Label, m)
	if err != nil {
		return nil, 0, 0, err
	}
	if leafRegion.Covers(q) {
		return records, 0, 0, nil
	}
	local, err := bitlabel.NewLocalTree(b.Label, m)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, branch := range local.BranchNodesBelow(beta) {
		g, regionErr := spatial.RegionOf(branch, m)
		if regionErr != nil {
			return nil, 0, 0, regionErr
		}
		sub, overlaps := g.Intersect(q)
		if !overlaps {
			continue
		}
		if ctx.shape != nil && !ctx.shape.IntersectsRect(sub) {
			continue
		}
		recs, r, lk, subErr := oldSubquery(ix, sub, branch, ctx)
		if subErr != nil {
			return nil, 0, 0, subErr
		}
		records = append(records, recs...)
		lookups += lk
		if r > rounds {
			rounds = r
		}
	}
	return records, rounds, lookups, nil
}

func oldSubquery(ix *Index, q spatial.Rect, beta bitlabel.Label, ctx queryCtx) (records []spatial.Record, rounds, lookups int, err error) {
	pieces := []Piece{{Node: beta, Base: beta, Q: q}}
	if ctx.h > 1 {
		pieces = speculate(beta, q, ctx.h, ix.opts.Dims, ix.opts.MaxDepth, ctx.shape)
	}
	for _, p := range pieces {
		recs, r, lk, pieceErr := oldResolvePiece(ix, p, ctx)
		if pieceErr != nil {
			return nil, 0, 0, pieceErr
		}
		records = append(records, recs...)
		lookups += lk
		if r > rounds {
			rounds = r
		}
	}
	return records, rounds, lookups, nil
}

func oldResolvePiece(ix *Index, p Piece, ctx queryCtx) (records []spatial.Record, rounds, lookups int, err error) {
	m := ix.opts.Dims
	b, found, err := ix.getBucket(bitlabel.Name(p.Node, m))
	lookups = 1
	rounds = 1
	if err != nil {
		return nil, 0, 0, err
	}
	if !found {
		leaf, extraLookups, extraRounds, fallbackErr := oldCoveringLeaf(ix, p)
		if fallbackErr != nil {
			return nil, 0, 0, fallbackErr
		}
		lookups += extraLookups
		rounds += extraRounds
		return filterRecords(leaf, p.Q, ctx.shape), rounds, lookups, nil
	}
	if b.Label == p.Node {
		return filterRecords(b, p.Q, ctx.shape), rounds, lookups, nil
	}
	recs, r, lk, err := oldProcess(ix, p.Q, p.Node, b, ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	return recs, rounds + r, lookups + lk, nil
}

func oldCoveringLeaf(ix *Index, p Piece) (Bucket, int, int, error) {
	m := ix.opts.Dims
	probed := map[bitlabel.Label]bool{bitlabel.Name(p.Node, m): true}
	lookups := 0
	for j := p.Node.Len() - 1; j >= p.Base.Len(); j-- {
		cand := p.Node.Prefix(j)
		name := bitlabel.Name(cand, m)
		if probed[name] {
			continue
		}
		probed[name] = true
		b, found, err := ix.getBucket(name)
		lookups++
		if err != nil {
			return Bucket{}, 0, 0, err
		}
		if found && b.Label.IsPrefixOf(p.Node) {
			return b, lookups, 1, nil
		}
	}
	leaf, trace, err := ix.LookupTraced(clampPoint(p.Q.Lo))
	if err != nil {
		return Bucket{}, 0, 0, err
	}
	return leaf, lookups + trace.Probes, 1 + trace.Probes, nil
}

func equivIndex(t *testing.T, opts index.Tuning, n int, seed int64) *Index {
	t.Helper()
	return equivIndexOver(t, dht.MustNewLocal(16), opts, n, seed)
}

// equivIndexOver is equivIndex over a substrate of the caller's.
func equivIndexOver(t *testing.T, d dht.DHT, opts index.Tuning, n int, seed int64) *Index {
	t.Helper()
	ix, err := New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := opts.Dims
	if m == 0 {
		m = 2
	}
	for i := 0; i < n; i++ {
		p := make(spatial.Point, m)
		for d := range p {
			p[d] = rng.Float64()
		}
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func sameRecords(a, b []spatial.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Data != b[i].Data || !samePoint(a[i].Key, b[i].Key) {
			return false
		}
	}
	return true
}

// TestEngineMatchesRecursiveReference compares the engine against the
// recursive reference over many random rectangles and lookaheads.
func TestEngineMatchesRecursiveReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts index.Tuning
		n    int
	}{
		{"2d-threshold", index.Tuning{Capacity: 10, MergeThreshold: 5}, 1200},
		{"3d-threshold", index.Tuning{Dims: 3, Capacity: 8, MergeThreshold: 4}, 900},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := equivIndex(t, tc.opts, tc.n, 42)
			m := ix.opts.Dims
			rng := rand.New(rand.NewSource(7))
			queries := []spatial.Rect{wholeSpace(m)}
			for i := 0; i < 40; i++ {
				queries = append(queries, randomRect(rng, m))
			}
			for _, h := range []int{1, 2, 4, 8} {
				ctx := queryCtx{h: h}
				for qi, q := range queries {
					want, err := runOldRangeQuery(ix, q, ctx)
					if err != nil {
						t.Fatalf("h=%d q#%d reference: %v", h, qi, err)
					}
					got, err := ix.rangeQuery(q, ctx)
					if err != nil {
						t.Fatalf("h=%d q#%d engine: %v", h, qi, err)
					}
					if !sameRecords(got.Records, want.Records) {
						t.Fatalf("h=%d q#%d %v: engine returned %d records, reference %d (or ordering differs)",
							h, qi, q, len(got.Records), len(want.Records))
					}
					if got.Rounds != want.Rounds {
						t.Errorf("h=%d q#%d %v: Rounds = %d, reference %d", h, qi, q, got.Rounds, want.Rounds)
					}
					if got.Lookups != want.Lookups {
						t.Errorf("h=%d q#%d %v: Lookups = %d, reference %d", h, qi, q, got.Lookups, want.Lookups)
					}
				}
			}
		})
	}
}

// TestEngineShapeMatchesReference repeats the comparison for shape queries,
// exercising the shape-pruning paths of both implementations.
func TestEngineShapeMatchesReference(t *testing.T) {
	ix := equivIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5}, 1000, 11)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		c := spatial.Circle{
			Center: spatial.Point{rng.Float64(), rng.Float64()},
			Radius: 0.05 + 0.3*rng.Float64(),
		}
		bound := c.BoundingBox()
		q := spatial.Rect{Lo: clampPoint(bound.Lo), Hi: clampPoint(bound.Hi)}
		for _, h := range []int{1, 4} {
			ctx := queryCtx{h: h, shape: c}
			want, err := runOldRangeQuery(ix, q, ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.rangeQuery(q, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(got.Records, want.Records) {
				t.Fatalf("h=%d circle #%d: engine %d records, reference %d", h, i, len(got.Records), len(want.Records))
			}
			if got.Rounds != want.Rounds {
				t.Errorf("h=%d circle #%d: Rounds = %d, reference %d", h, i, got.Rounds, want.Rounds)
			}
		}
	}
}

// TestSequentialConcurrentIdenticalAccounting pins the engine's core
// guarantee: MaxInFlight bounds only how probes overlap in time, never what
// is probed, so sequential (MaxInFlight = 1) and concurrent execution return
// identical Records, Lookups, and Rounds.
func TestSequentialConcurrentIdenticalAccounting(t *testing.T) {
	seq := equivIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5, MaxInFlight: 1}, 1200, 42)
	conc := equivIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5, MaxInFlight: 16}, 1200, 42)
	m := 2
	rng := rand.New(rand.NewSource(9))
	queries := []spatial.Rect{wholeSpace(m)}
	for i := 0; i < 30; i++ {
		queries = append(queries, randomRect(rng, m))
	}
	for _, h := range []int{1, 2, 4} {
		for qi, q := range queries {
			a, err := seq.RangeQueryParallel(q, h)
			if err != nil {
				t.Fatal(err)
			}
			b, err := conc.RangeQueryParallel(q, h)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(a.Records, b.Records) {
				t.Fatalf("h=%d q#%d: sequential %d records, concurrent %d (or ordering differs)",
					h, qi, len(a.Records), len(b.Records))
			}
			if a.Lookups != b.Lookups || a.Rounds != b.Rounds {
				t.Errorf("h=%d q#%d %v: sequential (L=%d R=%d) vs concurrent (L=%d R=%d)",
					h, qi, q, a.Lookups, a.Rounds, b.Lookups, b.Rounds)
			}
		}
	}
}

func wholeSpace(m int) spatial.Rect {
	lo := make(spatial.Point, m)
	hi := make(spatial.Point, m)
	for d := 0; d < m; d++ {
		hi[d] = 1
	}
	return spatial.Rect{Lo: lo, Hi: hi}
}
