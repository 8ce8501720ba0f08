// Package simnet is a deterministic in-process network simulator for the
// DHT overlays in this repository. Logical peers register a request handler
// under a node identifier; other peers reach them through synchronous RPCs
// that the network counts, delays according to a latency model, and can be
// told to fail (node down, link loss) for fault-injection tests.
//
// The simulator is intentionally synchronous: an RPC executes the remote
// handler on the caller's goroutine. This keeps multi-peer tests
// deterministic and fast while still exercising the real routing logic of
// the overlays. The paper's own evaluation ran logical peers in one LAN
// process group and measured logical DHT operations, which this reproduces.
//
// The data plane is built for scale: a 100k-peer simulation drives tens of
// millions of Calls, so the delivered-RPC path is zero-alloc and lock-free.
// Peer state lives in striped shards of immutable copy-on-write snapshots
// (one atomic load per lookup, no shared-memory writes), tuning knobs live
// in an atomically swapped config snapshot, drop decisions are computed
// with inline seeded hashing (hashseed) instead of a heap-allocated hasher,
// and per-edge sequence counters are striped so all-pairs workloads do not
// serialize on one mutex.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlight/internal/hashseed"
	"mlight/internal/metrics"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

// The RPC surface this simulator pioneered is now the explicit contract in
// internal/transport, with the Network here as its deterministic in-process
// implementation (the TCP implementation lives beside the contract). The
// core types are aliases so overlay code and tests written against either
// package name the same types.
type (
	// NodeID identifies a logical peer on the simulated network.
	NodeID = transport.NodeID
	// Handler processes one inbound RPC on a peer. Implementations must be
	// safe for concurrent use if the network is driven from multiple
	// goroutines.
	Handler = transport.Handler
	// HandlerFunc adapts a function to the Handler interface.
	HandlerFunc = transport.HandlerFunc
	// Crasher is implemented by handlers whose node holds volatile state
	// that a hard crash destroys. Network.Crash invokes OnCrash after
	// marking the node down, so the handler wipes memory-resident buckets,
	// routing tables, and replicas exactly as a process kill would. Durable
	// state (a write-ahead log, a snapshot file) must survive OnCrash —
	// that is the whole point of the crash/partition split: a partition
	// (SetDown) preserves everything, a crash preserves only what was
	// journaled.
	Crasher = transport.Crasher
	// Restarter is implemented by handlers that rebuild volatile state when
	// the process comes back: Network.Restart invokes OnRestart after
	// clearing the down mark, so recovery (log replay, rejoin) runs before
	// any peer traffic can observe the node.
	Restarter = transport.Restarter
)

var _ transport.Interface = (*Network)(nil)

// InlineDelivery implements transport.InlineCaller: the simulator executes
// the remote handler on the caller's goroutine in the same address space,
// so requests may carry values (closures) that cannot cross a real socket.
func (n *Network) InlineDelivery() bool { return true }

// temporaryError is a sentinel error that declares itself transient via the
// net.Error Temporary() convention, so retry layers (dht.DefaultClassify)
// recognize simulated network failures as retryable without simnet having to
// import them.
type temporaryError struct{ msg string }

func (e *temporaryError) Error() string   { return e.msg }
func (e *temporaryError) Temporary() bool { return true }

var (
	// ErrUnreachable is returned when the destination peer is down,
	// unregistered, or the link dropped the message. It is Temporary(): the
	// peer may recover or the next message may get through, so retry layers
	// treat it as transient.
	ErrUnreachable error = &temporaryError{"simnet: peer unreachable"}
	// ErrCallerDown is returned when the *calling* peer is down. A crashed
	// node cannot originate traffic: the call fails locally before touching
	// the network, is not counted in RPCs, and never rolls the drop
	// generator. It is deliberately not Temporary() — retrying from the same
	// crashed node cannot succeed until that node itself recovers.
	ErrCallerDown = errors.New("simnet: calling peer is down")
	// ErrDuplicateNode is returned when registering an already registered
	// node identifier.
	ErrDuplicateNode = errors.New("simnet: node already registered")
)

// LatencyModel returns the one-way delay between two peers. Models must be
// deterministic for a given pair to keep simulations reproducible.
type LatencyModel func(from, to NodeID) time.Duration

// ConstantLatency returns a model with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(from, to NodeID) time.Duration { return d }
}

// Options configures a Network.
type Options struct {
	// Latency is the one-way delay model; nil means zero latency.
	Latency LatencyModel
	// DropRate is the probability in [0,1) that an RPC is lost.
	DropRate float64
	// Seed seeds the drop-decision generator.
	Seed int64
}

// peerShards and edgeStripes size the striped tables. Powers of two so the
// selector is a mask. 256 shards keeps per-shard populations around ~400
// nodes at the 100k-peer target and makes same-shard collisions rare for a
// 32-goroutine driver, while staying negligible (~100KB of padded headers)
// for the small fixtures the unit tests build.
const (
	peerShards  = 256
	edgeStripes = 256
)

// shardState is one shard's immutable membership snapshot. Call reads it
// with a single atomic load and never writes shared memory, so concurrent
// callers do not bounce cache lines; mutators (Register, SetDown, churn
// events) clone-and-swap under the shard mutex. Shards stay small (~400
// nodes at the 100k-peer target across 256 shards), so a clone per
// membership change is cheap, and membership changes are rare next to Calls.
type shardState struct {
	peers map[NodeID]peer
}

// peer is one identifier's entry: its handler, nil for an identifier that is
// only marked down, and its down mark, so that Call reads an endpoint with one
// map lookup.
type peer struct {
	h    Handler
	down bool
}

// peerShard holds one stripe of the node table. Padded to its own cache
// lines so shards touched by different mutators do not false-share.
type peerShard struct {
	mu    sync.Mutex // serializes clone-and-swap mutations
	state atomic.Pointer[shardState]
	_     [112]byte // pad to two cache lines
}

// clone copies the snapshot for a mutator to edit privately.
func (st *shardState) clone() *shardState {
	next := &shardState{peers: make(map[NodeID]peer, len(st.peers)+1)}
	for id, p := range st.peers {
		next.peers[id] = p
	}
	return next
}

// mutate applies fn to a private clone of the shard's state and publishes
// it. In-flight readers keep the snapshot they loaded.
func (s *peerShard) mutate(fn func(*shardState)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.state.Load().clone()
	fn(next)
	s.state.Store(next)
}

// seqStripe holds one stripe of the per-edge message counters.
type seqStripe struct {
	mu  sync.Mutex
	seq map[edgeKey]uint64
	_   [112]byte // pad to two cache lines
}

// netConfig is the immutable tuning snapshot Call reads with one atomic
// load. Set* methods replace the whole snapshot, so the hot path never
// takes a lock to learn the drop rate, latency model, or tracer.
type netConfig struct {
	latency   LatencyModel
	drop      float64
	realDelay bool
	seed      int64
	tracer    *trace.Collector
}

// Network is the simulated message fabric. The zero value is not usable;
// construct with New.
//
// Call is safe for concurrent use: the α-parallel overlay lookups and the
// range engine's probe rounds drive one network from many goroutines at once.
// Loss decisions come from per-edge Bernoulli streams (see nextDrop) rather
// than one shared generator, so which messages are dropped for a given seed
// does not depend on how concurrent callers happen to interleave.
type Network struct {
	shards [peerShards]peerShard
	seqs   [edgeStripes]seqStripe
	cfg    atomic.Pointer[netConfig]
	cfgMu  sync.Mutex // serializes Set* read-modify-write on cfg
	nnodes atomic.Int64
	// downs counts the identifiers marked down. While it is zero — the
	// common case — Call need not look its caller up at all.
	downs atomic.Int64

	// RPCs counts attempted remote procedure calls (including failed ones).
	RPCs metrics.Counter
	// Dropped counts RPCs lost to injected link failure.
	Dropped metrics.Counter
	// simTime accumulates the modeled round-trip delay of every delivered
	// RPC, in nanoseconds. It is a bandwidth-style aggregate, not a
	// critical-path clock.
	simTime metrics.Counter
}

// New creates an empty network.
func New(opts Options) *Network {
	lat := opts.Latency
	if lat == nil {
		lat = ConstantLatency(0)
	}
	n := &Network{}
	n.cfg.Store(&netConfig{
		latency: lat,
		drop:    opts.DropRate,
		seed:    opts.Seed,
	})
	empty := &shardState{peers: map[NodeID]peer{}}
	for i := range n.shards {
		n.shards[i].state.Store(empty)
	}
	for i := range n.seqs {
		n.seqs[i].seq = make(map[edgeKey]uint64)
	}
	return n
}

// shard picks the peer stripe holding id. The raw FNV hash of short ids
// with common prefixes ("node-1", "node-2") clusters in its low bits'
// neighborhood, so finish with Fmix64 before masking.
func (n *Network) shard(id NodeID) *peerShard {
	h := hashseed.String(hashseed.FNVOffset64, string(id))
	return &n.shards[hashseed.Fmix64(h)&(peerShards-1)]
}

// edgeKey identifies a directed link for the per-edge drop streams.
type edgeKey struct{ from, to NodeID }

// stripe picks the counter stripe for a directed edge. The stripe choice is
// pure bookkeeping — it never feeds the drop stream — so it can use any
// stable hash of the edge.
func (n *Network) stripe(from, to NodeID) *seqStripe {
	h := hashseed.String(hashseed.FNVOffset64, string(from))
	h = hashseed.Byte(h, 0)
	h = hashseed.String(h, string(to))
	return &n.seqs[hashseed.Fmix64(h)&(edgeStripes-1)]
}

// nextDrop draws the next loss decision for the directed edge (from, to).
// Each edge carries its own deterministic Bernoulli stream, keyed on (seed,
// from, to, message position on that edge): the i-th message of a link is
// dropped or delivered independently of every other link's traffic. A
// single shared generator would make the loss pattern depend on the order
// in which concurrent Call-ers reach it; per-edge streams keep a seeded run
// reproducible when lookups and range queries issue RPCs in parallel.
// (Two goroutines racing on the *same* edge still contend for adjacent
// stream positions — the set of decisions is fixed, only their assignment
// to the racing calls can swap.)
//
// The hash is inline FNV-1a over [seed LE][from][0x00][to][seq LE] — the
// 0x00 separator keeps ("ab","c") and ("a","bc") distinct edges —
// byte-identical to the historical hash/fnv construction (pinned by
// TestDropStreamGolden) but without the heap-allocated hasher.
func (n *Network) nextDrop(seed int64, drop float64, from, to NodeID) bool {
	k := edgeKey{from, to}
	st := n.stripe(from, to)
	st.mu.Lock()
	seq := st.seq[k]
	st.seq[k] = seq + 1
	st.mu.Unlock()
	h := hashseed.Uint64LE(hashseed.FNVOffset64, uint64(seed))
	h = hashseed.String(h, string(from))
	h = hashseed.Byte(h, 0)
	h = hashseed.String(h, string(to))
	h = hashseed.Uint64LE(h, seq)
	// Map the top 53 bits onto [0,1) — the same construction rand.Float64
	// uses, so the drop probability is honoured uniformly.
	return hashseed.Unit(h) < drop
}

// Register attaches a handler under id. It fails if id is already present.
func (n *Network) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: nil handler for %q", id)
	}
	s := n.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	p := cur.peers[id]
	if p.h != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	next := cur.clone()
	p.h = h
	next.peers[id] = p
	s.state.Store(next)
	n.nnodes.Add(1)
	return nil
}

// Deregister removes a node entirely (a departed peer).
func (n *Network) Deregister(id NodeID) {
	n.shard(id).mutate(func(st *shardState) {
		n.setDownLocked(st, id, false)
		if st.peers[id].h != nil {
			n.nnodes.Add(-1)
		}
		delete(st.peers, id)
	})
}

// updateConfig applies one mutation to a copy of the current snapshot and
// publishes it. Concurrent in-flight Calls keep the snapshot they loaded —
// a Call observes the tuning state from either side of the change, never a
// mix.
func (n *Network) updateConfig(mutate func(*netConfig)) {
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	c := *n.cfg.Load()
	mutate(&c)
	n.cfg.Store(&c)
}

// SetRealDelay switches wall-clock delay enforcement on or off at runtime.
// On, every delivered RPC actually blocks the calling goroutine for its
// modeled round-trip time instead of only accounting it. This turns the
// simulator into a wall-clock latency testbed: sequential DHT probes pay their
// delays back to back, while probes issued from concurrent goroutines overlap
// — exactly what the concurrent query engine's benchmarks measure. A network
// starts with it off, as the deterministic logical-cost experiments need.
// Typical use: build and stabilize an overlay with delays off (joins issue
// thousands of RPCs), then enable them for the measured phase.
func (n *Network) SetRealDelay(on bool) {
	n.updateConfig(func(c *netConfig) { c.realDelay = on })
}

// SetTracer attaches a trace collector: every network-touching RPC is
// recorded as a flat KindHop span whose duration is the hop's modeled
// round-trip time (the simulator cannot know which query an RPC serves —
// distributed context propagation is out of scope — so hops are roots,
// correlated with query spans by their position on the shared logical
// clock). A nil collector, the default, records nothing.
func (n *Network) SetTracer(c *trace.Collector) {
	n.updateConfig(func(cfg *netConfig) { cfg.tracer = c })
}

// SetDropRate changes the link-loss probability at runtime. Typical use:
// build and stabilize an overlay losslessly, then inject loss for the
// measured phase of a resilience experiment.
func (n *Network) SetDropRate(rate float64) {
	n.updateConfig(func(c *netConfig) { c.drop = rate })
}

// SetDown marks a node as partitioned (true) or healed (false) without
// removing its registration. RPCs to a down node fail with ErrUnreachable.
//
// SetDown models a *partition*: the node keeps all of its in-memory state
// and simply cannot exchange messages. A process *crash* — which destroys
// volatile state — is Crash; the distinction matters because fault-injection
// tests that "recover" a node with SetDown(id, false) silently keep every
// pre-failure bucket alive, proving nothing about recovery.
func (n *Network) SetDown(id NodeID, down bool) {
	n.shard(id).mutate(func(st *shardState) { n.setDownLocked(st, id, down) })
}

// setDownLocked sets id's down mark in a shard's private clone and keeps
// downs counting the marks. Callers hold the shard's mutex.
func (n *Network) setDownLocked(st *shardState, id NodeID, down bool) {
	p := st.peers[id]
	switch {
	case p.down == down:
		return
	case down:
		n.downs.Add(1)
	default:
		n.downs.Add(-1)
	}
	p.down = down
	if p.h == nil && !down {
		delete(st.peers, id)
	} else {
		st.peers[id] = p
	}
}

// Crash marks a node down and destroys its volatile state: if the node's
// handler implements Crasher, OnCrash runs (outside the network lock, with
// the node already unreachable) and must wipe everything that would not
// survive a process kill. The registration is kept so the node can Restart
// under the same identity. Crashing an unregistered node is an error;
// crashing an already-down node re-runs OnCrash (a partitioned process can
// still die).
func (n *Network) Crash(id NodeID) error {
	var h Handler
	n.shard(id).mutate(func(st *shardState) {
		if h = st.peers[id].h; h != nil {
			n.setDownLocked(st, id, true)
		}
	})
	if h == nil {
		return fmt.Errorf("simnet: crash of unregistered node %q", id)
	}
	if c, ok := h.(Crasher); ok {
		c.OnCrash()
	}
	return nil
}

// Restart clears the down mark of a crashed or partitioned node and, if its
// handler implements Restarter, runs OnRestart so the node can replay
// durable state and rejoin before serving traffic. Peers can reach the node
// as soon as Restart returns.
func (n *Network) Restart(id NodeID) error {
	var h Handler
	n.shard(id).mutate(func(st *shardState) {
		if h = st.peers[id].h; h != nil {
			n.setDownLocked(st, id, false)
		}
	})
	if h == nil {
		return fmt.Errorf("simnet: restart of unregistered node %q", id)
	}
	if r, ok := h.(Restarter); ok {
		r.OnRestart()
	}
	return nil
}

// IsDown reports whether the node is currently marked crashed.
func (n *Network) IsDown(id NodeID) bool {
	return n.shard(id).state.Load().peers[id].down
}

// Nodes returns the identifiers of all registered nodes (up or down), in
// sorted order. Callers that snapshot membership (the churn scheduler,
// experiments) can rely on the order being stable for a given membership —
// map-iteration order must never leak into a seeded run's behavior.
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, 0, n.nnodes.Load())
	for i := range n.shards {
		for id, p := range n.shards[i].state.Load().peers {
			if p.h != nil {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int {
	return int(n.nnodes.Load())
}

// OneWayLatency returns the modeled one-way delay between two peers —
// exposed so application layers can account critical-path time.
func (n *Network) OneWayLatency(from, to NodeID) time.Duration {
	if from == to {
		return 0
	}
	return n.cfg.Load().latency(from, to)
}

// SimulatedRTT returns the total modeled round-trip time accumulated over
// all delivered RPCs.
func (n *Network) SimulatedRTT() time.Duration {
	return time.Duration(n.simTime.Load())
}

// Call performs a synchronous RPC from one peer to another. The handler
// executes on the calling goroutine. Self-calls are delivered without
// counting as network traffic, mirroring local processing on a peer. A down
// caller fails locally with ErrCallerDown: the call never reaches the
// network, so it is not counted in RPCs and cannot be dropped.
//
// The delivered path performs no allocations and takes no lock: one atomic
// config load, one load of the down count, one shard hash, one atomic
// snapshot load and one map read for the destination (and for the caller
// only while some node is down), and (only under injected loss) one stripe
// of the edge-sequence table. TestCallZeroAlloc
// and BenchmarkSimnetCallParallel pin this at run time; the hotpath lint
// pass pins it at compile time (failure arms and tracer formatting are the
// only waived allocations — both are off the delivered path).
//
//lint:hotpath
func (n *Network) Call(from, to NodeID, req any) (any, error) {
	cfg := n.cfg.Load()

	if n.downs.Load() > 0 && n.shard(from).state.Load().peers[from].down {
		return nil, fmt.Errorf("%w: %q", ErrCallerDown, from) //lint:allow hotpath failure arm, not the delivered path
	}
	dst := n.shard(to).state.Load().peers[to]
	h, isDown := dst.h, dst.down
	ok := h != nil

	dropped := false
	if ok && !isDown && cfg.drop > 0 && from != to {
		dropped = n.nextDrop(cfg.seed, cfg.drop, from, to)
	}
	var rtt time.Duration
	if from != to {
		rtt = cfg.latency(from, to) + cfg.latency(to, from)
		n.RPCs.Inc()
	}
	if !ok || isDown {
		if cfg.tracer != nil && from != to {
			cfg.tracer.Record(0, trace.KindHop, string(from)+"→"+string(to), 0, trace.Str("outcome", "unreachable")) //lint:allow hotpath tracing disabled in measured runs
		}
		return nil, fmt.Errorf("%w: %q", ErrUnreachable, to) //lint:allow hotpath failure arm, not the delivered path
	}
	if dropped {
		n.Dropped.Inc()
		if cfg.tracer != nil && from != to {
			cfg.tracer.Record(0, trace.KindHop, string(from)+"→"+string(to), rtt.Microseconds(), trace.Str("outcome", "dropped")) //lint:allow hotpath tracing disabled in measured runs
		}
		return nil, fmt.Errorf("%w: link %q→%q dropped message", ErrUnreachable, from, to) //lint:allow hotpath failure arm, not the delivered path
	}
	if from != to {
		n.simTime.Add(int64(rtt))
		if cfg.tracer != nil {
			cfg.tracer.Record(0, trace.KindHop, string(from)+"→"+string(to), rtt.Microseconds()) //lint:allow hotpath tracing disabled in measured runs
		}
		if cfg.realDelay && rtt > 0 {
			time.Sleep(rtt)
		}
	}
	return h.HandleRPC(from, req)
}
