// Package mlight is the public API of this repository: a from-scratch Go
// implementation of m-LIGHT (multi-dimensional Lightweight Hash Tree over a
// DHT; Tang, Xu, Zhou, Lee — ICDCS 2009), an over-DHT index for
// multi-dimensional range queries, together with the substrates it runs on
// and the baselines it was evaluated against.
//
// # Quick start
//
//	d := mlight.NewLocalDHT(128)          // or a Chord/Pastry cluster
//	ix, err := mlight.New(d)              // 2-D index, paper defaults
//	...
//	err = ix.Insert(mlight.Record{Key: mlight.Point{0.41, 0.73}, Data: "pizza"})
//	q, err := mlight.NewRect(mlight.Point{0.4, 0.7}, mlight.Point{0.5, 0.8})
//	res, err := ix.RangeQuery(q)
//	for _, r := range res.Records { ... }
//
// Constructors take functional options, applied left to right:
//
//	ix, err := mlight.New(d, mlight.WithCapacity(50))
//	ix, err := mlight.New(d,
//	    mlight.WithSplit(mlight.SplitDataAware),
//	    mlight.WithCache(256),
//	    mlight.WithRetry(mlight.RetryPolicy{}),
//	    mlight.WithTrace(mlight.NewTraceCollector()),
//	)
//
// The PHT and DST baselines are built the same way (mlight.NewPHT,
// mlight.NewDST) and share the Querier interface with the m-LIGHT index,
// so evaluation code runs against all three schemes through one type.
//
// # Architecture
//
// The index is strictly layered over the generic DHT interface (put / get /
// remove / apply / owner), so any substrate plugs in unchanged:
//
//	index:      m-LIGHT (core), PHT and DST baselines
//	interface:  DHT (this package's DHT type)
//	substrates: LocalDHT (in-process), Chord ring, Pastry/Bamboo overlay
//	network:    deterministic message-level simulator
//
// The paper's three mechanisms live in the index layer: the space kd-tree
// decomposition into leaf buckets, the m-dimensional naming function that
// maps leaf λ to DHT key fmd(λ) (a bijection onto the internal nodes, which
// is what makes maintenance incremental), and the data-aware splitting
// strategy that optimises peer load balance.
//
// Everything is pure Go standard library. See DESIGN.md for the full system
// inventory and EXPERIMENTS.md for the reproduced evaluation.
package mlight

import (
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/dst"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/pht"
	"mlight/internal/spatial"
	"mlight/internal/trace"
	"mlight/internal/wire"
)

// Core data types, aliased from the implementation packages so callers need
// only this import.
type (
	// Point is a data key: an m-dimensional vector in the unit cube.
	Point = spatial.Point
	// Rect is a closed query rectangle.
	Rect = spatial.Rect
	// Record is one indexed data record.
	Record = spatial.Record
	// Region is a half-open kd-tree cell.
	Region = spatial.Region

	// Querier is the scheme-independent index interface: the m-LIGHT
	// Index and the PHT and DST baselines all implement it, so evaluation
	// code can be written once and pointed at any scheme.
	Querier = index.Querier
	// Option is a functional constructor option accepted by New, NewPHT,
	// NewDST, Dial and RestoreIndex.
	Option = index.Option
	// Tuning is the parameter set an option list produces — the one
	// configuration type of all three schemes; each reads the fields it
	// has a use for.
	Tuning = index.Tuning

	// Index is the m-LIGHT index client.
	Index = core.Index
	// Writer is the group-commit insert engine (Index.Writer): concurrent
	// Insert callers coalesce into batched commits that share lookup,
	// apply, and placement round trips.
	Writer = core.Writer
	// PHT is the Prefix Hash Tree baseline index client.
	PHT = pht.Index
	// DST is the Distributed Segment Tree baseline index client.
	DST = dst.Index
	// Bucket is one leaf bucket (label store + record store).
	Bucket = core.Bucket
	// QueryResult is a range-query answer with its bandwidth and latency
	// cost.
	QueryResult = core.QueryResult
	// SplitStrategy selects threshold-based or data-aware splitting.
	SplitStrategy = core.SplitStrategy
	// Stats is a snapshot of maintenance counters.
	Stats = metrics.Snapshot

	// Shape is an arbitrary query region (bounding box + membership +
	// rectangle-intersection pruning).
	Shape = spatial.Shape
	// Circle is a Euclidean ball query shape.
	Circle = spatial.Circle
	// Neighbor is one k-nearest-neighbour result.
	Neighbor = core.Neighbor
	// NearestResult is a kNN answer with its cost.
	NearestResult = core.NearestResult

	// DHT is the substrate interface the index runs over.
	DHT = dht.DHT
	// Key is a DHT key.
	Key = dht.Key
	// LocalDHT is the in-process substrate.
	LocalDHT = dht.Local

	// RetryPolicy configures the optional fault-tolerance layer
	// (WithRetry): retry budgets, backoff, and per-owner circuit
	// breakers for transient substrate failures.
	RetryPolicy = dht.RetryPolicy
	// ResilienceStats is a snapshot of the retry layer's counters
	// (Index.ResilienceStats().Snapshot()).
	ResilienceStats = metrics.ResilienceSnapshot

	// TraceCollector records a structured trace of every operation the
	// index performs — query, batch round, cover-group probe, DHT op,
	// retry attempt — on a deterministic logical clock. Attach one with
	// WithTrace; export with WriteTree, WriteTraceEvent or WriteSummary. A
	// nil collector disables tracing at zero cost.
	TraceCollector = trace.Collector
	// TraceSpan is one recorded operation in a trace.
	TraceSpan = trace.Span
	// TraceKind classifies a trace span by pipeline stage.
	TraceKind = trace.Kind
)

// Trace span kinds, from outermost to innermost stage.
const (
	TraceKindQuery   = trace.KindQuery
	TraceKindRound   = trace.KindRound
	TraceKindProbe   = trace.KindProbe
	TraceKindLookup  = trace.KindLookup
	TraceKindDHTOp   = trace.KindDHTOp
	TraceKindAttempt = trace.KindAttempt
	TraceKindHop     = trace.KindHop
	TraceKindCache   = trace.KindCache
)

// Split strategies (paper §4).
const (
	// SplitThreshold is the conventional θsplit/θmerge strategy.
	SplitThreshold = core.SplitThreshold
	// SplitDataAware is the optimal-balance strategy of Algorithm 1.
	SplitDataAware = core.SplitDataAware
)

// Index errors.
var (
	// ErrNotFound reports that no bucket covers a key.
	ErrNotFound = core.ErrNotFound
	// ErrDimension reports a dimensionality mismatch.
	ErrDimension = core.ErrDimension

	// NoSleep is a RetryPolicy.Sleep that returns immediately — for
	// simulated networks where backoff delays are accounted, not paid.
	NoSleep = dht.NoSleep
)

// New creates an m-LIGHT index client over any DHT substrate, bootstrapping
// the root bucket if the index does not exist yet. With no options it uses
// the paper defaults (2 dimensions, threshold splitting). Options compose
// left to right.
func New(d DHT, opts ...Option) (*Index, error) {
	return core.New(d, index.Resolve(opts...))
}

// NewPHT creates a Prefix Hash Tree baseline index over the substrate. It
// accepts the same options as New; the ones a PHT has no use for (the
// split strategy, the cache, the in-flight cap) are ignored.
func NewPHT(d DHT, opts ...Option) (*PHT, error) {
	return pht.New(d, index.Resolve(opts...))
}

// NewDST creates a Distributed Segment Tree baseline index over the
// substrate, accepting the same options as New (WithMaxDepth sets the
// segment-tree height).
func NewDST(d DHT, opts ...Option) (*DST, error) {
	return dst.New(d, index.Resolve(opts...))
}

// NewTraceCollector creates an unbounded-by-default trace collector ready to
// pass to WithTrace.
func NewTraceCollector() *TraceCollector {
	return trace.NewCollector()
}

// Functional options for New, NewPHT and NewDST.
var (
	// WithDims sets the data dimensionality m.
	WithDims = index.WithDims
	// WithMaxDepth bounds the tree depth (PHT key length, DST height).
	WithMaxDepth = index.WithMaxDepth
	// WithCapacity sets the leaf-bucket capacity (θsplit for m-LIGHT).
	WithCapacity = index.WithCapacity
	// WithMergeThreshold sets θmerge, the underflow bound that triggers
	// leaf merging.
	WithMergeThreshold = index.WithMergeThreshold
	// WithSplit selects the splitting strategy (SplitThreshold or
	// SplitDataAware, paper §4).
	WithSplit = index.WithSplit
	// WithEpsilon sets the data-aware sampling accuracy ε.
	WithEpsilon = index.WithEpsilon
	// WithMaxInFlight caps concurrent DHT probes per query (the paper's
	// lookahead parallelism; 1 makes execution fully sequential and
	// traces deterministic).
	WithMaxInFlight = index.WithMaxInFlight
	// WithCache sets the leaf-label lookup cache size (0 disables).
	WithCache = index.WithCache
	// WithRetry enables the resilient DHT layer with the given policy.
	WithRetry = index.WithRetry
	// WithTrace attaches a trace collector to every operation the index
	// performs; nil disables tracing.
	WithTrace = index.WithTrace
	// WithSleep sets the maintenance backoff sleeper (NoSleep makes insert
	// retries deterministic over simulated substrates).
	WithSleep = index.WithSleep
	// WithSeed seeds the index's internal randomness (depth-estimation
	// probes), keeping repeated runs replayable.
	WithSeed = index.WithSeed
	// WithTransport makes Dial speak over a caller-owned RPC transport
	// instead of creating its own TCP transport (client-side only; the
	// in-process constructors ignore it).
	WithTransport = index.WithTransport
	// WithSubstrate names the overlay protocol of the dialed cluster:
	// "chord" (default), "pastry" or "kademlia". It must match the
	// daemons' -substrate flag (client-side only).
	WithSubstrate = index.WithSubstrate
)

// NewLocalDHT creates the in-process substrate with the given number of
// virtual peers (key ownership follows consistent hashing, as on a real
// ring). The store is partitioned over independently locked shards, so
// concurrent ingest and queries do not serialise on one mutex. It panics
// only on non-positive peer counts.
func NewLocalDHT(peers int) *LocalDHT {
	return dht.MustNewLocal(peers)
}

// NewRect validates and builds a closed query rectangle.
func NewRect(lo, hi Point) (Rect, error) {
	return spatial.NewRect(lo, hi)
}

// NewCircle validates and builds a circle query shape.
func NewCircle(center Point, radius float64) (Circle, error) {
	return spatial.NewCircle(center, radius)
}

// NewByteDHT wraps a substrate so every stored bucket crosses the DHT
// boundary as bytes in the compact wire format — how the index would run
// over a real byte-oriented DHT service such as OpenDHT.
func NewByteDHT(inner DHT) DHT {
	return wire.NewByteDHT(inner, wire.BucketCodec{})
}
