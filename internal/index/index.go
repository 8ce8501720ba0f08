// Package index defines the contract shared by the three over-DHT indexes
// in this repository — m-LIGHT (core) and the PHT and DST baselines: the
// common query-facing interface (Querier), the common range-query answer
// type (Result), the one configuration type (Tuning) with its defaults and
// validation, and the one constructor of the decorator stack every index
// runs over (Stack). The public mlight facade re-exports these types, so
// experiments, benchmarks, and examples compare indexes without importing
// internal packages.
package index

import (
	"fmt"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

// Result carries the answer and the cost of one range query, in the
// paper's units: total DHT-lookups (bandwidth, Fig. 7a) and rounds of
// DHT-lookups on the critical path (latency, Fig. 7b). All three indexes
// return this type (core.QueryResult, pht.QueryResult, and dst.QueryResult
// are aliases of it).
type Result struct {
	Records []spatial.Record
	Lookups int
	Rounds  int
}

// Querier is the query-facing interface every index in this repository
// implements: the m-LIGHT core index and the PHT and DST baselines. It
// covers the operations the paper's evaluation exercises on all three
// schemes; scheme-specific extensions (parallel lookahead, kNN, shape
// queries) stay on the concrete types.
type Querier interface {
	// Insert adds one record to the index.
	Insert(rec spatial.Record) error
	// Delete removes one (key, data) record, reporting whether it existed.
	Delete(key spatial.Point, data string) (bool, error)
	// RangeQuery answers a multi-dimensional range query.
	RangeQuery(q spatial.Rect) (*Result, error)
	// Stats snapshots the index's maintenance counters.
	Stats() metrics.Snapshot
}

// SplitStrategy selects how overfull m-LIGHT leaf buckets divide (paper
// §4). The PHT and DST baselines ignore it.
type SplitStrategy int

const (
	// SplitThreshold is the conventional θsplit/θmerge strategy (§4.1).
	SplitThreshold SplitStrategy = iota + 1
	// SplitDataAware is the data-aware strategy of §4.2: buckets split
	// according to the optimal split subtree of Algorithm 1.
	SplitDataAware
)

// String renders the strategy name.
func (s SplitStrategy) String() string {
	switch s {
	case SplitThreshold:
		return "threshold"
	case SplitDataAware:
		return "data-aware"
	default:
		return fmt.Sprintf("SplitStrategy(%d)", int(s))
	}
}

// Tuning is the configuration of an index — the only one: core.New, pht.New,
// dst.New and core.RestoreInto all take it. Every field's zero value selects
// the listed default; a scheme ignores the fields it has no use for:
//
//	field           default        m-LIGHT   PHT      DST
//	Dims            2              m         m        m
//	MaxDepth        28             D         D        height D
//	Capacity        100            θsplit    B        γ
//	MergeThreshold  Capacity/2     θmerge    yes      —
//	Strategy        threshold      yes       —        —
//	Epsilon         70             ε         —        —
//	MaxInFlight     16             yes       —        —
//	CacheSize       0 (off)        yes       —        —
//	Retry           nil (off)      yes       yes      yes
//	Trace           nil (off)      yes       yes      yes
//	Seed            0              yes       —        —
type Tuning struct {
	// Dims is the data dimensionality m.
	Dims int
	// MaxDepth is D, the maximum tree depth: below the ordinary root for
	// m-LIGHT (the §5 lookup binary search runs over labels of up to m+1+D
	// bits), bits of the z-order key for PHT, the fixed height for DST.
	MaxDepth int
	// Capacity is the records a bucket holds before it splits (m-LIGHT's
	// θsplit, PHT's B) or, for DST, before an internal node saturates and
	// stops replicating (γ).
	Capacity int
	// MergeThreshold merges a sibling leaf pair jointly holding fewer
	// records (§4.1 suggests θsplit/2).
	MergeThreshold int
	// Strategy selects the m-LIGHT splitting strategy.
	Strategy SplitStrategy
	// Epsilon is the expected per-bucket load ε for SplitDataAware (70 is
	// the paper's Fig. 6 setting).
	Epsilon int
	// MaxInFlight caps the concurrently outstanding DHT probes per query
	// round; it is handed to the substrate with each round's batch
	// (dht.GetBatch). 1 forces fully sequential execution; larger values let
	// a round's frontier overlap, so measured latency tracks Rounds instead
	// of Lookups. It changes only execution, never the Lookups/Rounds
	// accounting.
	MaxInFlight int
	// CacheSize enables the client-side leaf-label lookup cache: an LRU of
	// recently resolved leaves that seeds the §5 binary search, so a repeat
	// lookup on an unchanged index costs one verification probe. Entries
	// observed stale are evicted and the search falls back to the standard
	// bounds. 0 disables it, preserving the paper's probe accounting.
	CacheSize int
	// Retry, when non-nil, interposes a dht.Resilient layer between the
	// index and the substrate: every DHT operation is retried under the
	// policy's backoff/attempt budget and per-owner circuit breakers. The
	// logical operation accounting is unchanged — retries are metered
	// separately (core.Index.ResilienceStats).
	Retry *dht.RetryPolicy
	// Trace, when non-nil, records an operation trace into the collector:
	// query → batch round → probe → DHT op → retry attempt spans, plus
	// lookup searches and cache events. Every collection point is a nil
	// check, so a disabled trace costs nothing.
	Trace *trace.Collector
	// Seed seeds the index's internal randomness — today the depth-probe
	// sampling of EstimateDepth. The index never reads the global rand
	// source or the wall clock, so any fixed value (the zero value included)
	// keeps runs replayable.
	Seed int64

	// Transport supplies the RPC substrate mlight.Dial speaks over. It is a
	// client-side option: it configures how this process reaches the
	// overlay, not how overlay nodes behave. Nil makes Dial create (and
	// own) a TCP transport; a non-nil value stays caller-owned and is left
	// open on Client.Close. In-process constructors (New/NewPHT/NewDST)
	// ignore it — they receive a ready dht.DHT instead.
	Transport transport.Interface
	// Substrate names the overlay protocol the dialed cluster runs:
	// "chord" (default), "pastry", or "kademlia". Client-side like
	// Transport: it must match what the serving daemons were started with,
	// it does not reconfigure them. Ignored by the in-process constructors.
	Substrate string
}

// Option is one configuration step applied to a Tuning:
//
//	mlight.New(d)                                      // defaults
//	mlight.New(d, mlight.WithCapacity(50))
//	mlight.New(d, mlight.WithCache(256), mlight.WithSplit(mlight.SplitDataAware))
//
// Options are applied left to right, so a later one wins.
type Option func(*Tuning)

// Resolve folds a list of options over the zero Tuning.
func Resolve(opts ...Option) Tuning {
	var t Tuning
	for _, o := range opts {
		if o != nil {
			o(&t)
		}
	}
	return t
}

// Normalize fills every zero field with its default and checks the result —
// every field, also for a scheme that ignores some: a value no scheme would
// accept is the caller's bug wherever it is passed. The one bound left to
// the caller is MaxDepth's upper one: how long a label a depth-D tree needs
// differs by scheme (m+1+D bits for m-LIGHT, D for the z-order baselines),
// so each New checks its own.
func (t Tuning) Normalize() (Tuning, error) {
	if t.Dims == 0 {
		t.Dims = 2
	}
	if t.MaxDepth == 0 {
		t.MaxDepth = 28
	}
	if t.Capacity == 0 {
		t.Capacity = 100
	}
	if t.MergeThreshold == 0 {
		t.MergeThreshold = t.Capacity / 2
	}
	if t.Strategy == 0 {
		t.Strategy = SplitThreshold
	}
	if t.Epsilon == 0 {
		t.Epsilon = 70
	}
	if t.MaxInFlight == 0 {
		t.MaxInFlight = dht.DefaultMaxInFlight
	}

	if t.Dims < 1 {
		return t, fmt.Errorf("index: Dims must be ≥ 1, got %d", t.Dims)
	}
	if t.MaxDepth < 1 {
		return t, fmt.Errorf("index: MaxDepth must be ≥ 1, got %d", t.MaxDepth)
	}
	if t.Capacity < 1 {
		return t, fmt.Errorf("index: Capacity must be ≥ 1, got %d", t.Capacity)
	}
	if t.MergeThreshold < 0 || t.MergeThreshold >= t.Capacity {
		return t, fmt.Errorf("index: need 0 ≤ MergeThreshold < Capacity, got %d, %d", t.MergeThreshold, t.Capacity)
	}
	if t.MaxInFlight < 1 {
		return t, fmt.Errorf("index: MaxInFlight must be ≥ 1, got %d", t.MaxInFlight)
	}
	if t.CacheSize < 0 {
		return t, fmt.Errorf("index: CacheSize must be ≥ 0, got %d", t.CacheSize)
	}
	switch t.Strategy {
	case SplitThreshold:
	case SplitDataAware:
		if t.Epsilon < 1 {
			return t, fmt.Errorf("index: Epsilon must be ≥ 1 for data-aware splitting, got %d", t.Epsilon)
		}
	default:
		return t, fmt.Errorf("index: unknown split strategy %v", t.Strategy)
	}
	return t, nil
}

// Stacked is the decorated view of a substrate an index runs over.
type Stacked struct {
	// Raw is the uncounted view: bootstrap writes and rewrites local to the
	// owning peer. It is the substrate itself, or the retry layer over it.
	Raw dht.DHT
	// Counted charges every operation that crosses the DHT to Stats.
	Counted *dht.Counting
	// Stats are the maintenance counters Counted feeds.
	Stats *metrics.IndexStats
	// Resilience meters the retry layer; nil when t.Retry is.
	Resilience *metrics.ResilienceStats
}

// Stack builds the decorator stack between an index and its substrate:
// Resilient (when t.Retry is set, tracing its attempts into t.Trace) under
// Counting. The retry layer sits below the counter so a logical operation is
// charged once however many attempts it takes, and all index traffic —
// counted operations and local rewrites alike — flows through it.
func Stack(d dht.DHT, t Tuning) Stacked {
	s := Stacked{Stats: &metrics.IndexStats{}}
	if t.Retry != nil {
		res := dht.NewResilient(d, *t.Retry, nil)
		res.SetTracer(t.Trace)
		s.Resilience = res.Stats()
		d = res
	}
	s.Raw = d
	s.Counted = dht.NewCounting(d, s.Stats)
	return s
}

// WithDims sets the data dimensionality m.
func WithDims(m int) Option { return func(t *Tuning) { t.Dims = m } }

// WithMaxDepth sets the index depth bound D.
func WithMaxDepth(d int) Option { return func(t *Tuning) { t.MaxDepth = d } }

// WithCapacity sets the per-bucket record capacity (θsplit / B / γ).
func WithCapacity(n int) Option { return func(t *Tuning) { t.Capacity = n } }

// WithMergeThreshold sets the sibling merge threshold (θmerge).
func WithMergeThreshold(n int) Option { return func(t *Tuning) { t.MergeThreshold = n } }

// WithSplit selects the m-LIGHT splitting strategy.
func WithSplit(s SplitStrategy) Option { return func(t *Tuning) { t.Strategy = s } }

// WithEpsilon sets the data-aware expected load ε.
func WithEpsilon(e int) Option { return func(t *Tuning) { t.Epsilon = e } }

// WithMaxInFlight caps concurrently outstanding DHT probes per round.
func WithMaxInFlight(n int) Option { return func(t *Tuning) { t.MaxInFlight = n } }

// WithCache enables the leaf-label lookup cache with the given capacity.
func WithCache(n int) Option { return func(t *Tuning) { t.CacheSize = n } }

// WithRetry interposes the fault-tolerance layer under policy p.
func WithRetry(p dht.RetryPolicy) Option {
	return func(t *Tuning) { t.Retry = &p }
}

// WithTrace attaches c as the operation-trace collector. A nil c detaches.
func WithTrace(c *trace.Collector) Option {
	return func(t *Tuning) { t.Trace = c }
}

// WithSeed seeds the index's internal randomness (depth-estimation probes).
func WithSeed(seed int64) Option {
	return func(t *Tuning) { t.Seed = seed }
}

// WithTransport makes mlight.Dial speak over tr instead of creating its own
// TCP transport. Client-side only: it selects how this process reaches the
// cluster; node-side behaviour (replication, stabilization, durability) is
// fixed by the daemons. The transport stays caller-owned — Client.Close will
// not close it. In-process constructors ignore this option.
func WithTransport(tr transport.Interface) Option {
	return func(t *Tuning) { t.Transport = tr }
}

// WithSubstrate names the overlay protocol of the dialed cluster: "chord"
// (the default), "pastry", or "kademlia". Client-side only — it must match
// the -substrate the daemons were launched with; it cannot change a running
// cluster. In-process constructors ignore this option.
func WithSubstrate(name string) Option {
	return func(t *Tuning) { t.Substrate = name }
}
