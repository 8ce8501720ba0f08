// Package index defines the contract shared by the three over-DHT indexes
// in this repository — m-LIGHT (core) and the PHT and DST baselines: the
// common query-facing interface (Querier), the common range-query answer
// type (Result), and the single tuning surface (Tuning) the three
// per-package Options structs deduplicate into. The public mlight facade
// re-exports these types, so experiments, benchmarks, and examples compare
// indexes without importing internal packages.
package index

import (
	"fmt"
	"time"

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

// Tuning is the unified tuning surface of the three indexes. Every field's
// zero value selects the owning package's documented default; fields that
// do not apply to a scheme are ignored by it. The mapping onto the
// per-scheme vocabulary:
//
//	field           m-LIGHT (core)   PHT              DST
//	Capacity        ThetaSplit       LeafCapacity B   NodeCapacity γ
//	MergeThreshold  ThetaMerge       MergeThreshold   (ignored)
//	MaxDepth        MaxDepth D       MaxDepth D       Height D
//	Strategy        Strategy         (ignored)        (ignored)
//	Epsilon         Epsilon ε        (ignored)        (ignored)
//	MaxInFlight     MaxInFlight      (ignored)        (ignored)
//	CacheSize       CacheSize        (ignored)        (ignored)
//	Retry           Retry            Retry            Retry
//	Trace           Trace            Trace            Trace
//	Sleep           Sleep            (ignored)        (ignored)
//	Seed            Seed             (ignored)        (ignored)
type Tuning struct {
	// Dims is the data dimensionality m.
	Dims int
	// MaxDepth is the index depth bound D.
	MaxDepth int
	// Capacity is the per-bucket/leaf/node record capacity.
	Capacity int
	// MergeThreshold merges sibling leaves jointly holding fewer records.
	MergeThreshold int
	// Strategy selects the m-LIGHT splitting strategy.
	Strategy SplitStrategy
	// Epsilon is the expected per-bucket load ε for SplitDataAware.
	Epsilon int
	// MaxInFlight caps concurrently outstanding DHT probes per query round.
	MaxInFlight int
	// CacheSize enables the client-side leaf-label lookup cache.
	CacheSize int
	// Retry interposes the dht.Resilient fault-tolerance layer.
	Retry *dht.RetryPolicy
	// Trace attaches an operation-trace collector.
	Trace *trace.Collector
	// Sleep is the sleeper maintenance backoff uses between conflicting
	// insert attempts; nil selects time.Sleep (m-LIGHT only).
	Sleep func(time.Duration)
	// Seed seeds the index's internal randomness — today the depth-probe
	// sampling of EstimateDepth. Any fixed value keeps runs replayable; the
	// zero value is itself a valid seed, so no field needs setting for
	// deterministic behaviour.
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

// Option is one functional configuration step applied to a Tuning. The
// per-package Options structs also implement Option (applying themselves
// wholesale), so a constructor accepts either style:
//
//	mlight.New(d)                                      // defaults
//	mlight.New(d, mlight.WithCache(256), mlight.WithSplit(mlight.SplitDataAware))
//	mlight.New(d, mlight.Options{ThetaSplit: 50})      // struct, kept working
//
// Options are applied in order; a whole-struct Options value overwrites
// every field, so place it first when mixing styles.
type Option interface {
	Apply(*Tuning)
}

// OptionFunc adapts a function to the Option interface.
type OptionFunc func(*Tuning)

// Apply implements Option.
func (f OptionFunc) Apply(t *Tuning) { f(t) }

// Resolve folds a list of options over the zero Tuning.
func Resolve(opts ...Option) Tuning {
	var t Tuning
	for _, o := range opts {
		if o != nil {
			o.Apply(&t)
		}
	}
	return t
}

// WithDims sets the data dimensionality m.
func WithDims(m int) Option { return OptionFunc(func(t *Tuning) { t.Dims = m }) }

// WithMaxDepth sets the index depth bound D.
func WithMaxDepth(d int) Option { return OptionFunc(func(t *Tuning) { t.MaxDepth = d }) }

// WithCapacity sets the per-bucket record capacity (θsplit / B / γ).
func WithCapacity(n int) Option { return OptionFunc(func(t *Tuning) { t.Capacity = n }) }

// WithMergeThreshold sets the sibling merge threshold (θmerge).
func WithMergeThreshold(n int) Option { return OptionFunc(func(t *Tuning) { t.MergeThreshold = n }) }

// WithSplit selects the m-LIGHT splitting strategy.
func WithSplit(s SplitStrategy) Option { return OptionFunc(func(t *Tuning) { t.Strategy = s }) }

// WithEpsilon sets the data-aware expected load ε.
func WithEpsilon(e int) Option { return OptionFunc(func(t *Tuning) { t.Epsilon = e }) }

// WithMaxInFlight caps concurrently outstanding DHT probes per round.
func WithMaxInFlight(n int) Option { return OptionFunc(func(t *Tuning) { t.MaxInFlight = n }) }

// WithCache enables the leaf-label lookup cache with the given capacity.
func WithCache(n int) Option { return OptionFunc(func(t *Tuning) { t.CacheSize = n }) }

// WithRetry interposes the fault-tolerance layer under policy p.
func WithRetry(p dht.RetryPolicy) Option {
	return OptionFunc(func(t *Tuning) { t.Retry = &p })
}

// WithTrace attaches c as the operation-trace collector. A nil c detaches.
func WithTrace(c *trace.Collector) Option {
	return OptionFunc(func(t *Tuning) { t.Trace = c })
}

// WithSleep sets the maintenance backoff sleeper. Pass dht.NoSleep for
// deterministic tests over simulated substrates; nil restores time.Sleep.
func WithSleep(sleep func(time.Duration)) Option {
	return OptionFunc(func(t *Tuning) { t.Sleep = sleep })
}

// WithSeed seeds the index's internal randomness (depth-estimation probes).
func WithSeed(seed int64) Option {
	return OptionFunc(func(t *Tuning) { t.Seed = seed })
}

// WithTransport makes mlight.Dial speak over tr instead of creating its own
// TCP transport. Client-side only: it selects how this process reaches the
// cluster; node-side behaviour (replication, stabilization, durability) is
// fixed by the daemons. The transport stays caller-owned — Client.Close will
// not close it. In-process constructors ignore this option.
func WithTransport(tr transport.Interface) Option {
	return OptionFunc(func(t *Tuning) { t.Transport = tr })
}

// WithSubstrate names the overlay protocol of the dialed cluster: "chord"
// (the default), "pastry", or "kademlia". Client-side only — it must match
// the -substrate the daemons were launched with; it cannot change a running
// cluster. In-process constructors ignore this option.
func WithSubstrate(name string) Option {
	return OptionFunc(func(t *Tuning) { t.Substrate = name })
}
