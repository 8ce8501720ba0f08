package core

import (
	"fmt"
	"math"
	"strconv"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// QueryResult carries the answer and the cost of one range query, in the
// paper's units: total DHT-lookups (bandwidth, Fig. 7a) and rounds of
// DHT-lookups on the critical path (latency, Fig. 7b). It is the shared
// result type of the index contract package, so all three indexes in this
// repository answer queries with the same type.
type QueryResult = index.Result

// queryCtx carries the per-query options through the decomposition: the
// parallel lookahead h and, for arbitrary-shape queries, the shape used for
// subtree pruning and final filtering. span is the query's trace span (zero
// when tracing is disabled).
type queryCtx struct {
	h     int
	shape spatial.Shape
	span  trace.SpanID
	// depth counts the queries gather nested this one in.
	depth int
}

// RangeQuery answers a multi-dimensional range query with the basic
// algorithm of §6 (Algorithms 2 and 3): route to the corner cell of the
// range's lowest common ancestor, then recursively decompose the range over
// the branch nodes of each reached cell's local tree. Subranges never
// overlap, so no bucket is visited redundantly.
func (ix *Index) RangeQuery(q spatial.Rect) (*QueryResult, error) {
	return ix.rangeQuery(q, queryCtx{h: 1})
}

// RangeQueryParallel is the parallel variant of §6: at every forwarding
// step a branch node's subrange is speculatively pre-split into up to h
// pieces along the (globally known) space partitioning, and all pieces are
// probed in the same round. Larger h shortens the critical path and spends
// more DHT-lookups; h = 1 degrades to the basic algorithm.
func (ix *Index) RangeQueryParallel(q spatial.Rect, h int) (*QueryResult, error) {
	if h < 1 {
		return nil, fmt.Errorf("core: lookahead h must be ≥ 1, got %d", h)
	}
	return ix.rangeQuery(q, queryCtx{h: h})
}

// ShapeQuery answers a query over an arbitrarily shaped region (§6 notes
// the queried region "can be of an arbitrary shape"): the shape's bounding
// box drives the kd-tree decomposition, subtrees whose cells provably miss
// the shape are pruned, and records are filtered by exact membership.
func (ix *Index) ShapeQuery(s spatial.Shape) (*QueryResult, error) {
	return ix.ShapeQueryParallel(s, 1)
}

// ShapeQueryParallel is ShapeQuery with the parallel lookahead h.
func (ix *Index) ShapeQueryParallel(s spatial.Shape, h int) (*QueryResult, error) {
	if h < 1 {
		return nil, fmt.Errorf("core: lookahead h must be ≥ 1, got %d", h)
	}
	if s == nil {
		return nil, fmt.Errorf("core: nil shape")
	}
	bound := s.BoundingBox()
	clamped := spatial.Rect{Lo: clampPoint(bound.Lo), Hi: clampPoint(bound.Hi)}
	return ix.rangeQuery(clamped, queryCtx{h: h, shape: s})
}

// rangeQuery drives the round-synchronous execution engine: every round the
// current frontier of independent DHT probes goes to the substrate as one
// batch call (dht.GetBatch, which overlaps them up to Tuning.MaxInFlight or
// answers them natively), the call's return is the barrier, and the results
// generate the next frontier on the calling goroutine. Rounds therefore
// equals the number of synchronous batch barriers — the paper's latency
// unit — and wall-clock latency over a latency-bearing substrate scales
// with Rounds, not Lookups. MaxInFlight = 1 degrades to fully sequential
// execution with identical Records, Lookups, and Rounds: the cap changes
// only how probes overlap, never what is probed.
func (ix *Index) rangeQuery(q spatial.Rect, ctx queryCtx) (res *QueryResult, err error) {
	if tc := ix.opts.Trace; tc != nil {
		kind := "range"
		if ctx.shape != nil {
			kind = "shape"
		}
		ctx.span = tc.Begin(0, trace.KindQuery, kind, trace.Int("h", int64(ctx.h)))
		defer func() {
			if err != nil {
				tc.End(ctx.span, trace.Str("error", err.Error()))
				return
			}
			tc.End(ctx.span,
				trace.Int("lookups", int64(res.Lookups)),
				trace.Int("rounds", int64(res.Rounds)),
				trace.Int("records", int64(len(res.Records))))
		}()
	}
	return ix.rangeQueryCtx(q, ctx)
}

func (ix *Index) rangeQueryCtx(q spatial.Rect, ctx queryCtx) (*QueryResult, error) {
	m := ix.opts.Dims
	lca, err := queryLCA(q, m, ix.opts.MaxDepth)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{}
	eng := &rangeEngine{ix: ix, ctx: ctx}
	root := &execNode{}
	var frontier []frontierItem
	if pieces, ok := ix.cacheTile(lca, q, ctx); ok {
		// The cached tree planned the first round: no LCA probe.
		frontier = root.probes(pieces, nil)
	} else {
		b, found, err := ix.getBucketSpan(bitlabel.Name(lca, m), ctx.span)
		res.Lookups++
		res.Rounds++
		if err == nil && found {
			b, err = eng.gather(b)
		}
		if err != nil {
			return nil, err
		}
		if !found {
			// The LCA is not an internal node, so the whole range lies inside
			// one leaf (Algorithm 2 lines 3–4): find it by looking up a corner
			// of the range.
			var lt LookupTrace
			leaf, err := ix.lookup(clampPoint(q.Lo), &lt, ctx.span)
			if err != nil {
				return nil, err
			}
			res.Lookups += lt.Probes
			res.Rounds += lt.Probes
			if leaf.Label.IsPrefixOf(lca) {
				res.Records = filterRecords(leaf, q, ctx.shape).records()
				return res, nil
			}
			// The leaf that held the range split, and the LCA's key is one
			// its move has not filled yet: plan from the root instead, whose
			// key always holds a bucket.
			lca = bitlabel.Root(m)
			b, found, err = ix.getBucketSpan(bitlabel.Name(lca, m), ctx.span)
			res.Lookups++
			res.Rounds++
			if err == nil && found {
				b, err = eng.gather(b)
			}
			if err == nil && !found {
				err = fmt.Errorf("%w: no bucket under the root's key", ErrNotFound)
			}
			if err != nil {
				return nil, err
			}
		}
		if frontier, err = eng.expand(q, lca, b, root, nil); err != nil {
			return nil, err
		}
	}
	if err := eng.run(frontier); err != nil {
		return nil, err
	}
	res.Lookups += eng.lookups
	res.Rounds += eng.barriers + eng.extraRounds
	res.Records = root.collect(m)
	return res, nil
}

// cacheTile asks the leaf cache to plan the range's first round (tile), and
// records the plan's size as a tile event under the query's span. ok is false
// when the cache is disabled or knows nothing about lca.
func (ix *Index) cacheTile(lca bitlabel.Label, q spatial.Rect, ctx queryCtx) ([]piece, bool) {
	if ix.cache == nil {
		return nil, false
	}
	pieces, ok := ix.cache.tile(lca, q, ctx.shape)
	if tc := ix.opts.Trace; ok && tc != nil {
		tc.Event(ctx.span, trace.KindCache, "tile", trace.Int("pieces", int64(len(pieces))))
	}
	return pieces, ok
}

// rangeEngine executes one query's decomposition as synchronized rounds of
// batched probes, accumulating the cost accounting.
type rangeEngine struct {
	ix  *Index
	ctx queryCtx

	// lookups counts every DHT probe charged; barriers counts completed
	// batch rounds. extraRounds accounts the rare sequential recovery
	// lookup (possible only under concurrent restructuring), whose probes
	// are serial rounds the barrier count cannot see.
	lookups     int
	barriers    int
	extraRounds int
}

// execNode is one node of the query's execution tree. Each frontier item
// owns exactly one node and writes only to it; the tree's depth-first order
// reproduces the deterministic result ordering of the sequential
// decomposition whatever order a round's probes were answered in.
type execNode struct {
	match    match
	children []*execNode
}

// collect returns the tree's records in depth-first order, in one slice,
// their keys copied into one block of dims coordinates a record — both sized
// for every hit inside the query's rectangle, which a shape may thin.
func (n *execNode) collect(dims int) []spatial.Record {
	total := n.count()
	if total == 0 {
		return nil
	}
	out, _ := n.appendTo(make([]spatial.Record, 0, total), make([]float64, 0, total*dims))
	if len(out) == 0 {
		return nil
	}
	return out
}

// count returns how many hits the subtree holds.
func (n *execNode) count() int {
	total := len(n.match.at)
	for _, c := range n.children {
		total += c.count()
	}
	return total
}

// appendTo appends the subtree's records in depth-first order.
func (n *execNode) appendTo(out []spatial.Record, keys []float64) ([]spatial.Record, []float64) {
	out, keys = n.match.appendTo(out, keys)
	for _, c := range n.children {
		out, keys = c.appendTo(out, keys)
	}
	return out, keys
}

// itemKind discriminates frontier work items.
type itemKind int

const (
	// itemProbe fetches the bucket named to a piece's node and expands the
	// decomposition there.
	itemProbe itemKind = iota
	// itemCover probes every covering-leaf candidate of an overshot piece in
	// one round and adjudicates them at the barrier.
	itemCover
	// itemFallback runs the sequential recovery lookup after the candidate
	// round failed to surface the covering leaf (possible only under
	// concurrent restructuring).
	itemFallback
)

// frontierItem is one unit of work inside a round.
type frontierItem struct {
	kind itemKind
	p    piece
	node *execNode
	// names are an itemCover's candidates, deepest first — the priority the
	// paper's parallel recovery implies: the first of them whose bucket is a
	// prefix of the overshot node is the covering leaf.
	names []bitlabel.Label
}

// run executes rounds until the frontier drains. A round is one batch call
// per substrate view — the piece probes through the counted view, the
// covering-leaf candidates through the raw one (their charge is decided at
// adjudication) — whose positional results are then resolved in frontier
// order, each item consuming the results its keys were given.
func (e *rangeEngine) run(frontier []frontierItem) error {
	ix, m, tc := e.ix, e.ix.opts.Dims, e.ix.opts.Trace
	for len(frontier) > 0 {
		e.barriers++
		var round trace.SpanID
		if tc != nil {
			round = tc.Begin(e.ctx.span, trace.KindRound, strconv.Itoa(e.barriers),
				trace.Int("items", int64(len(frontier))),
				trace.Int("in_flight", int64(min(len(frontier), ix.opts.MaxInFlight))))
		}
		probeKeys := make([]dht.Key, 0, len(frontier))
		var candKeys []dht.Key
		for _, it := range frontier {
			switch it.kind {
			case itemProbe:
				probeKeys = append(probeKeys, labelKey(bitlabel.Name(it.p.Node, m)))
			case itemCover:
				for _, name := range it.names {
					candKeys = append(candKeys, labelKey(name))
				}
			}
		}
		probes := ix.getBatch(ix.d, probeKeys)
		cands := ix.getBatch(ix.raw, candKeys)

		var next []frontierItem
		for _, it := range frontier {
			var span trace.SpanID
			if tc != nil {
				span = tc.Begin(round, trace.KindProbe, probeName(it))
			}
			before := len(next)
			var err error
			switch it.kind {
			case itemProbe:
				next, err = e.resolveProbe(it, probes[0], next, span)
				probes = probes[1:]
			case itemCover:
				next, err = e.resolveCover(it, cands[:len(it.names)], next, span)
				cands = cands[len(it.names):]
			case itemFallback:
				err = e.resolveFallback(it, span)
			}
			if err != nil {
				if tc != nil {
					tc.End(span, trace.Str("error", err.Error()))
					tc.End(round)
				}
				return err
			}
			if tc != nil {
				tc.End(span, trace.Int("next", int64(len(next)-before)))
			}
		}
		if tc != nil {
			tc.End(round)
		}
		frontier = next
	}
	return nil
}

// getBatch resolves one round's keys against one substrate view in a single
// call; the results are positional.
func (ix *Index) getBatch(d dht.DHT, keys []dht.Key) []dht.BatchResult {
	if len(keys) == 0 {
		return nil
	}
	return dht.GetBatch(d, keys, ix.opts.MaxInFlight)
}

// batchedBucket decodes one result of a round's batch. The batch call
// carries no span, so the DHT-op span a single get records around its call
// (getBucketSpan) is recorded here from the result, under the item's span.
func (ix *Index) batchedBucket(label bitlabel.Label, r dht.BatchResult, op string, parent trace.SpanID) (Bucket, bool, error) {
	if tc := ix.opts.Trace; tc != nil {
		span := tc.Begin(parent, trace.KindDHTOp, op, trace.Str("label", label.String()))
		endDHTOp(tc, span, r.Found, r.Err)
	}
	return decodeBucket(label, r.Value, r.Found, r.Err)
}

// probeName labels a frontier item's trace span.
func probeName(it frontierItem) string {
	switch it.kind {
	case itemProbe:
		return it.p.Node.String()
	case itemCover:
		return "cover " + it.p.Node.String()
	default:
		return "fallback"
	}
}

// resolveProbe continues the decomposition at the bucket named to the
// piece's node. Speculative nodes may lie below the actual tree: a missing
// bucket means some leaf between the piece's base node and its speculative
// node covers the whole piece; that leaf is found by probing the names of
// all intermediate ancestors in the next round's batch — more bandwidth, no
// extra latency, exactly the parallel algorithm's trade.
func (e *rangeEngine) resolveProbe(it frontierItem, r dht.BatchResult, next []frontierItem, span trace.SpanID) ([]frontierItem, error) {
	m := e.ix.opts.Dims
	e.lookups++
	b, found, err := e.ix.batchedBucket(bitlabel.Name(it.p.Node, m), r, "get", span)
	moving := found && b.mark() != nil
	if moving && err == nil {
		b, err = e.gather(b)
	}
	if err != nil {
		return next, err
	}
	if !found {
		// With no intermediate ancestors to try, go straight to the
		// sequential recovery lookup next round.
		cover := frontierItem{kind: itemFallback, p: it.p, node: it.node, names: coverCandidates(it.p, m)}
		if len(cover.names) > 0 {
			cover.kind = itemCover
		}
		return append(next, cover), nil
	}
	if !moving {
		// A gathered bucket stands for the leaf that split, a leaf no more.
		e.ix.cacheLeaf(b.Label)
	}
	if b.Label == it.p.Node {
		// The node itself is a leaf; it covers the piece entirely.
		it.node.match = filterRecords(b, it.p.Q, e.ctx.shape)
		return next, nil
	}
	return e.expand(it.p.Q, it.p.Node, b, it.node, next)
}

// resolveCover adjudicates a candidate round: a first-hit scan in the
// candidates' deepest-first order. All of them were probed, uncounted, in the
// round's batch; the charge added here is what the sequential early-exit scan
// pays — the slots up to and including the first hit, or every slot on a
// total miss — so the probes past the hit are physical overhead only. When
// no candidate qualifies (possible only under concurrent restructuring) the
// sequential fallback is scheduled.
func (e *rangeEngine) resolveCover(it frontierItem, results []dht.BatchResult, next []frontierItem, span trace.SpanID) ([]frontierItem, error) {
	for slot, name := range it.names {
		e.lookups++
		e.ix.stats.DHTLookups.Inc()
		b, found, err := e.ix.batchedBucket(name, results[slot], "get-cand", span)
		moving := found && b.mark() != nil
		if moving && err == nil {
			b, err = e.gather(b)
		}
		if err != nil {
			return next, err
		}
		if found && b.Label.IsPrefixOf(it.p.Node) {
			if !moving {
				e.ix.cacheLeaf(b.Label)
			}
			it.node.match = filterRecords(b, it.p.Q, e.ctx.shape)
			return next, nil
		}
	}
	return append(next, frontierItem{kind: itemFallback, p: it.p, node: it.node}), nil
}

// resolveFallback recovers with a sequential lookup at a corner of the
// piece. Its probes run serially, so they are charged as extra rounds beyond
// the barrier the item occupies.
func (e *rangeEngine) resolveFallback(it frontierItem, span trace.SpanID) error {
	var lt LookupTrace
	leaf, err := e.ix.lookup(clampPoint(it.p.Q.Lo), &lt, span)
	if err != nil {
		return err
	}
	e.lookups += lt.Probes
	e.extraRounds = max(e.extraRounds, lt.Probes-1)
	if !leaf.Label.IsPrefixOf(it.p.Node) {
		// The piece's cell split after the round that planned it (a move
		// filled its key since): the piece is queried whole.
		if leaf, err = e.subquery(it.p.Node, it.p.Q); err != nil {
			return err
		}
	}
	it.node.match = filterRecords(leaf, it.p.Q, e.ctx.shape)
	return nil
}

// subquery answers the range q inside node's cell as a bucket labeled node,
// with a query of its own. Only a round planned before a move ended needs it.
func (e *rangeEngine) subquery(node bitlabel.Label, q spatial.Rect) (Bucket, error) {
	if e.ctx.depth >= maxHops {
		return Bucket{}, fmt.Errorf("core: range nested %d queries deep at %v", e.ctx.depth, node)
	}
	res, err := e.ix.rangeQueryCtx(q, queryCtx{h: 1, span: e.ctx.span, depth: e.ctx.depth + 1})
	if err != nil {
		return Bucket{}, err
	}
	e.lookups += res.Lookups
	e.extraRounds += res.Rounds
	return NewBucket(node, res.Records), nil
}

// expand asks the planner what a bucket b fetched as the corner cell of node
// β with (clipped) subrange q yields: b's matching records go into the
// execution node, and every piece becomes one probe appended to next. All of
// them join the same round's batch, so sibling subqueries — and, with h > 1,
// their speculative pieces — genuinely overlap.
func (e *rangeEngine) expand(q spatial.Rect, beta bitlabel.Label, b Bucket, node *execNode, next []frontierItem) ([]frontierItem, error) {
	m, pieces, err := step(b, beta, q, e.ctx.h, e.ix.opts.Dims, e.ix.opts.MaxDepth, e.ctx.shape)
	if err != nil {
		return next, err
	}
	node.match = m
	return node.probes(pieces, next), nil
}

// probes appends one probe per piece to next, each owning a new child of n in
// the pieces' order.
func (n *execNode) probes(pieces []piece, next []frontierItem) []frontierItem {
	for _, p := range pieces {
		child := &execNode{}
		n.children = append(n.children, child)
		next = append(next, frontierItem{kind: itemProbe, p: p, node: child})
	}
	return next
}

// gather returns, for a bucket in the middle of a move (move.go), the leaf it
// answers for — its reported label — with the records that leaf's cell holds
// now: the stayer's, and each frozen piece's where it went. A piece's target
// holds them when a bucket there covers the piece; a piece that arrived and
// moved on since (split again, or merged away) is queried over its cell; a
// piece that has not arrived
// holds them in the mark, as no write reaches it first. A plain bucket is
// returned as it is. The reads are serial, charged as extra rounds; they
// happen only while a move is under way.
func (e *rangeEngine) gather(b Bucket) (Bucket, error) {
	if b.mark() == nil {
		return b, nil
	}
	ix, m := e.ix, e.ix.opts.Dims
	var recs []spatial.Record
	if !b.mark().retire {
		recs = b.Records()
	}
	for _, h := range b.hops() {
		cell, err := spatial.RegionOf(h.piece.Label, m)
		if err != nil {
			return Bucket{}, err
		}
		at, found, err := ix.getBucketSpan(h.target(m), e.ctx.span)
		e.lookups++
		e.extraRounds++
		if err != nil {
			return Bucket{}, err
		}
		switch {
		case found && h.arrived(at):
			if at, err = e.gather(at); err != nil {
				return Bucket{}, err
			}
			recs = appendWithin(recs, at.Records(), cell)
		case !h.gone(at) && (!found || h.absorb || h.supersedes(at)):
			recs = append(recs, h.piece.Records()...)
		default:
			// The query's rectangle is closed and the cell half-open: its
			// upper corner moves one float inward, or the rectangle would
			// reach the next cell and its LCA the leaf that split.
			hi := make(spatial.Point, m)
			for j := range hi {
				hi[j] = math.Nextafter(cell.Hi[j], cell.Lo[j])
			}
			if e.ctx.depth >= maxHops {
				return Bucket{}, fmt.Errorf("core: range gathered %d moves deep at %v", e.ctx.depth, h.piece.Label)
			}
			res, err := ix.rangeQueryCtx(spatial.Rect{Lo: cell.Lo, Hi: hi}, queryCtx{h: 1, span: e.ctx.span, depth: e.ctx.depth + 1})
			if err != nil {
				return Bucket{}, err
			}
			e.lookups += res.Lookups
			e.extraRounds += res.Rounds
			recs = appendWithin(recs, res.Records, cell)
		}
	}
	return NewBucket(b.reported(), recs), nil
}

// appendWithin appends the records that lie in cell.
func appendWithin(out, recs []spatial.Record, cell spatial.Region) []spatial.Record {
	for _, r := range recs {
		if cell.Contains(r.Key) {
			out = append(out, r)
		}
	}
	return out
}
