package core

import (
	"fmt"
	"strconv"
	"sync"

	"mlight/internal/bitlabel"
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
// current frontier of independent DHT probes is issued as one concurrent
// batch (bounded by Options.MaxInFlight), a barrier waits for the whole
// batch, and the results generate the next frontier. Rounds therefore
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
	lca, err := QueryLCA(q, m, ix.opts.MaxDepth)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{}
	b, found, err := ix.getBucketSpan(bitlabel.Name(lca, m), nil, ctx.span)
	res.Lookups++
	res.Rounds++
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
		res.Records = filterRecords(leaf, q, ctx.shape)
		return res, nil
	}

	eng := &rangeEngine{ix: ix, ctx: ctx}
	root := &execNode{}
	frontier, err := eng.expand(q, lca, b, root)
	if err != nil {
		return nil, err
	}
	if err := eng.run(frontier); err != nil {
		return nil, err
	}
	res.Lookups += eng.lookups
	res.Rounds += eng.barriers + eng.extraRounds
	res.Records = root.collect(res.Records)
	return res, nil
}

// rangeEngine executes one query's decomposition as synchronized rounds of
// concurrent probes, accumulating the cost accounting.
type rangeEngine struct {
	ix  *Index
	ctx queryCtx

	// lookups counts every DHT probe issued; barriers counts completed
	// batch rounds. extraRounds accounts the rare sequential recovery
	// lookup (possible only under concurrent restructuring), whose probes
	// are serial rounds the barrier count cannot see.
	lookups     int
	barriers    int
	extraRounds int
}

// execNode is one node of the query's execution tree. Each frontier item
// owns exactly one node and writes only to it, so concurrent workers never
// share state; the tree's depth-first order reproduces the deterministic
// result ordering of the sequential decomposition regardless of probe
// completion order.
type execNode struct {
	records  []spatial.Record
	children []*execNode
}

// collect appends the subtree's records in depth-first order.
func (n *execNode) collect(out []spatial.Record) []spatial.Record {
	out = append(out, n.records...)
	for _, c := range n.children {
		out = c.collect(out)
	}
	return out
}

// itemKind discriminates frontier work items.
type itemKind int

const (
	// itemProbe fetches the bucket named to a piece's node and expands the
	// decomposition there.
	itemProbe itemKind = iota
	// itemCand probes one covering-leaf candidate of an overshot piece; all
	// of a piece's candidates run in the same round and are adjudicated
	// together at the barrier.
	itemCand
	// itemFallback runs the sequential recovery lookup after the candidate
	// round failed to surface the covering leaf (possible only under
	// concurrent restructuring).
	itemFallback
)

// frontierItem is one unit of work inside a round.
type frontierItem struct {
	kind itemKind
	p    Piece
	node *execNode
	// group links itemCand items of the same overshot piece; slot is this
	// candidate's priority position inside it.
	group *coverGroup
	slot  int
}

// coverGroup gathers the covering-leaf candidate probes of one overshot
// piece. Candidates are ordered deepest-first, matching the priority the
// paper's parallel recovery implies: the first candidate (in that order)
// whose bucket is a prefix of the overshot node is the covering leaf.
//
// Probing early-exits on the first hit, like the sequential reference: a
// candidate slot launches only while no lower slot has already qualified, so
// under sequential execution the scan stops exactly where the recursive
// algorithm stopped. Under concurrent execution slots past the first hit may
// race and probe anyway; those probes are physical overhead only — the
// logical charge, computed at adjudication, is always the deterministic
// "slots up to and including the first hit" (or all slots on a total miss),
// identical to the sequential cost.
type coverGroup struct {
	p     Piece
	node  *execNode
	names []bitlabel.Label

	mu sync.Mutex
	// hit is the lowest qualifying slot recorded so far, len(names) while
	// none has qualified; leaf is the bucket that slot's probe returned.
	hit  int
	leaf Bucket
}

// skip reports whether the slot's probe can be elided because a
// strictly-lower slot already holds the covering leaf.
func (g *coverGroup) skip(slot int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hit < slot
}

// qualify records that the slot's probe returned a bucket covering the
// overshot node.
func (g *coverGroup) qualify(slot int, b Bucket) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if slot < g.hit {
		g.hit, g.leaf = slot, b
	}
}

// itemResult is what executing one frontier item produces: the next round's
// items it generated, plus accounting adjustments.
type itemResult struct {
	next        []frontierItem
	lookups     int
	extraRounds int
	err         error
}

// run executes rounds until the frontier drains. Each round is one
// synchronous batch barrier: all items are issued through a bounded worker
// pool, the barrier waits for every probe, and the (deterministically
// ordered) results build the next frontier.
func (e *rangeEngine) run(frontier []frontierItem) error {
	tc := e.ix.opts.Trace
	for len(frontier) > 0 {
		e.barriers++
		e.ix.stats.BatchRounds.Inc()
		e.ix.stats.BatchProbes.Add(int64(len(frontier)))
		inFlight := len(frontier)
		if e.ix.opts.MaxInFlight < inFlight {
			inFlight = e.ix.opts.MaxInFlight
		}
		e.ix.stats.MaxInFlight.Observe(int64(inFlight))

		var round trace.SpanID
		if tc != nil {
			round = tc.Begin(e.ctx.span, trace.KindRound, strconv.Itoa(e.barriers),
				trace.Int("items", int64(len(frontier))),
				trace.Int("in_flight", int64(inFlight)))
		}
		results := e.runBatch(frontier, round)
		if tc != nil {
			tc.End(round)
		}

		var next []frontierItem
		resolved := map[*coverGroup]bool{}
		for i := range frontier {
			r := &results[i]
			e.lookups += r.lookups
			if r.err != nil {
				return r.err
			}
			if r.extraRounds > e.extraRounds {
				e.extraRounds = r.extraRounds
			}
			next = append(next, r.next...)
			// All candidate probes of a group live in this same round, so
			// the group is adjudicable as soon as its first member is
			// reached in order.
			if g := frontier[i].group; g != nil && !resolved[g] {
				resolved[g] = true
				item, done := e.adjudicate(g)
				if !done {
					next = append(next, item)
				}
			}
		}
		frontier = next
	}
	return nil
}

// runBatch executes one round's items concurrently, bounded by
// Options.MaxInFlight. Results are positional. With a single worker (or a
// single item) everything runs inline on the calling goroutine, which keeps
// the sequential execution mode allocation-light and exactly ordered.
func (e *rangeEngine) runBatch(items []frontierItem, round trace.SpanID) []itemResult {
	results := make([]itemResult, len(items))
	workers := e.ix.opts.MaxInFlight
	if workers == 1 || len(items) == 1 {
		for i := range items {
			results[i] = e.execute(items[i], round)
		}
		return results
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range items {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = e.execute(items[i], round)
		}(i)
	}
	wg.Wait()
	return results
}

// execute runs one frontier item, recording its probe span under the round
// when tracing is enabled. It touches only the item's own execNode (and,
// for candidates, the item's own group slot), so items of a round never
// race.
func (e *rangeEngine) execute(it frontierItem, round trace.SpanID) itemResult {
	tc := e.ix.opts.Trace
	var span trace.SpanID
	if tc != nil {
		span = tc.Begin(round, trace.KindProbe, probeName(it))
	}
	var res itemResult
	switch it.kind {
	case itemProbe:
		res = e.executeProbe(it, span)
	case itemCand:
		res = e.executeCand(it, span)
	case itemFallback:
		res = e.executeFallback(it, span)
	}
	if tc != nil {
		if res.err != nil {
			tc.End(span, trace.Str("error", res.err.Error()))
		} else {
			tc.End(span, trace.Int("next", int64(len(res.next))))
		}
	}
	return res
}

// probeName labels a frontier item's trace span.
func probeName(it frontierItem) string {
	switch it.kind {
	case itemProbe:
		return it.p.Node.String()
	case itemCand:
		return "cand " + it.group.names[it.slot].String() + " slot " + strconv.Itoa(it.slot)
	default:
		return "fallback"
	}
}

// executeProbe fetches the bucket named to the piece's node and continues
// the decomposition there. Speculative nodes may lie below the actual tree:
// a missing bucket means some leaf between the piece's base node and its
// speculative node covers the whole piece; that leaf is found by probing
// the names of all intermediate ancestors in the next round's batch — more
// bandwidth, no extra latency, exactly the parallel algorithm's trade.
func (e *rangeEngine) executeProbe(it frontierItem, span trace.SpanID) itemResult {
	m := e.ix.opts.Dims
	res := itemResult{lookups: 1}
	b, found, err := e.ix.getBucketSpan(bitlabel.Name(it.p.Node, m), nil, span)
	if err != nil {
		res.err = err
		return res
	}
	if !found {
		names := coverCandidates(it.p, m)
		if len(names) == 0 {
			// No intermediate ancestors to try: go straight to the
			// sequential recovery lookup next round.
			res.next = []frontierItem{{kind: itemFallback, p: it.p, node: it.node}}
			return res
		}
		g := &coverGroup{p: it.p, node: it.node, names: names, hit: len(names)}
		for slot := range names {
			res.next = append(res.next, frontierItem{kind: itemCand, p: it.p, group: g, slot: slot})
		}
		return res
	}
	e.ix.cacheLeaf(b)
	if b.Label == it.p.Node {
		// The node itself is a leaf; it covers the piece entirely.
		it.node.records = filterRecords(b, it.p.Q, e.ctx.shape)
		return res
	}
	next, err := e.expand(it.p.Q, it.p.Node, b, it.node)
	if err != nil {
		res.err = err
		return res
	}
	res.next = next
	return res
}

// executeCand probes one covering-leaf candidate, recording a qualifying
// bucket in its group for adjudication at the barrier. The probe is skipped
// when a lower-priority-index slot already found the covering leaf (the
// early-exit of the sequential reference), and it is issued uncounted: the
// group's deterministic logical charge is added once, at adjudication.
func (e *rangeEngine) executeCand(it frontierItem, span trace.SpanID) itemResult {
	g := it.group
	if g.skip(it.slot) {
		return itemResult{}
	}
	b, found, err := e.ix.getBucketRawSpan(g.names[it.slot], span)
	if err != nil {
		return itemResult{err: err}
	}
	if found && b.Label.IsPrefixOf(g.p.Node) {
		g.qualify(it.slot, b)
	}
	return itemResult{}
}

// executeFallback recovers with a sequential lookup at a corner of the
// piece. Its probes run serially on this worker, so they are charged as
// extra rounds beyond the barrier the item occupies.
func (e *rangeEngine) executeFallback(it frontierItem, span trace.SpanID) itemResult {
	var lt LookupTrace
	leaf, err := e.ix.lookup(clampPoint(it.p.Q.Lo), &lt, span)
	if err != nil {
		return itemResult{err: err}
	}
	it.node.records = filterRecords(leaf, it.p.Q, e.ctx.shape)
	return itemResult{lookups: lt.Probes, extraRounds: lt.Probes - 1}
}

// adjudicate resolves a completed candidate round: the first candidate (in
// the group's deepest-first priority order) holding a bucket whose label is
// a prefix of the overshot node is the covering leaf. When no candidate
// qualifies (possible only under concurrent restructuring) a sequential
// fallback item is scheduled; done reports whether the group completed.
//
// The logical charge for the whole group is added here: slots up to and
// including the first hit, or every slot on a total miss — the exact cost
// of the sequential early-exit scan, no matter which extra probes raced.
// The invariant making this sound: a slot is skipped only when a strictly
// lower slot already qualified, so every slot at or below the final first
// hit was genuinely probed, and the slots above it are the over-probing the
// charge excludes.
func (e *rangeEngine) adjudicate(g *coverGroup) (item frontierItem, done bool) {
	g.mu.Lock()
	hit, leaf := g.hit, g.leaf
	g.mu.Unlock()
	charged := len(g.names)
	if hit < len(g.names) {
		charged = hit + 1
	}
	e.lookups += charged
	e.ix.stats.DHTLookups.Add(int64(charged))
	if hit < len(g.names) {
		e.ix.cacheLeaf(leaf)
		g.node.records = filterRecords(leaf, g.p.Q, e.ctx.shape)
		return frontierItem{}, true
	}
	return frontierItem{kind: itemFallback, p: g.p, node: g.node}, false
}

// expand asks the planner what a bucket b fetched as the corner cell of node
// β with (clipped) subrange q yields: b's matching records go into the
// execution node, and every piece becomes one next-round probe. All emitted
// probes join the same batch barrier, so sibling subqueries — and, with
// h > 1, their speculative pieces — genuinely overlap.
func (e *rangeEngine) expand(q spatial.Rect, beta bitlabel.Label, b Bucket, node *execNode) ([]frontierItem, error) {
	records, pieces, err := Step(b, beta, q, e.ctx.h, e.ix.opts.Dims, e.ix.opts.MaxDepth, e.ctx.shape)
	if err != nil {
		return nil, err
	}
	node.records = records
	var items []frontierItem
	for _, p := range pieces {
		child := &execNode{}
		node.children = append(node.children, child)
		items = append(items, frontierItem{kind: itemProbe, p: p, node: child})
	}
	return items, nil
}
