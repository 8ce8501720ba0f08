// Package kademlia implements the Kademlia distributed hash table
// (Maymounkov & Mazières, IPTPS 2002) as a Router for the overlay kernel
// (internal/overlay) — the third pluggable substrate beneath the m-LIGHT
// index, alongside internal/chord and internal/pastry.
//
// Kademlia's distinguishing choices, all implemented here:
//
//   - the XOR metric: d(a, b) = a ⊕ b, which is symmetric and unifies
//     "distance to a node" and "distance to a key";
//   - k-buckets: one bucket of up to k contacts per shared-prefix length,
//     refreshed opportunistically — every routing RPC's sender is inserted,
//     so routing state maintains itself from ordinary traffic;
//   - iterative lookups with concurrency α: the querier keeps a shortlist
//     of the closest known contacts and repeatedly asks the α best
//     unqueried ones for closer nodes until the shortlist converges.
//
// A key is owned by the node whose identifier has minimal XOR distance to
// hash(key). Joins backfill routing tables by looking up the joiner's own
// identifier; crashes are repaired by the Stabilize rounds (dead-contact
// eviction + bucket refresh). With Config.Replication = r > 1 the kernel's
// placement rule — copies on the r-1 contacts of the owner nearest the key
// — is the paper's "store at the k closest", and its periodic re-push is
// the paper's republish.
package kademlia

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/overlay"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

const (
	// K is the bucket capacity (number of contacts remembered per
	// shared-prefix length). The original paper uses 20; 8 suits the
	// simulation scales here.
	K = 8
	// Alpha is the lookup concurrency factor.
	Alpha = 3
)

// maxRounds bounds one iterative lookup.
const maxRounds = 64

// ErrRPCTimeout is returned when a single overlay RPC exceeds its adaptive
// deadline. It is retryable: a hung peer may answer the next attempt, and
// the iterative lookup treats a timed-out candidate exactly like an
// unreachable one.
var ErrRPCTimeout = dht.Retryable(errors.New("kademlia: rpc timed out"))

// minRPCTimeout floors the adaptive per-RPC deadline so a few fast early
// observations cannot starve slower links.
const minRPCTimeout = 200 * time.Millisecond

// rttEstimator maintains an EWMA of observed round-trip times and derives
// the adaptive per-RPC timeout from it (Salah/Roos/Strufe: timeouts sized
// from live RTT measurements, not a fixed worst case, are what make
// α-parallel lookups cut tail latency instead of stacking full-deadline
// waits). Before any observation the estimator answers with a
// seeded-deterministic fallback in [minRPCTimeout, 2·minRPCTimeout), so a
// fixed seed yields the same timeout schedule on every run.
type rttEstimator struct {
	mu       sync.Mutex
	ewma     time.Duration // 0 = nothing observed yet
	fallback time.Duration
}

// observe folds one measured round trip into the estimate (EWMA with
// smoothing 1/4, the classic TCP SRTT weighting).
func (e *rttEstimator) observe(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	e.mu.Lock()
	if e.ewma == 0 {
		e.ewma = rtt
	} else {
		e.ewma = (3*e.ewma + rtt) / 4
	}
	e.mu.Unlock()
}

// timeout returns the current per-RPC deadline: 4× the smoothed RTT,
// floored at minRPCTimeout, or the seeded fallback before any observation.
func (e *rttEstimator) timeout() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ewma == 0 {
		return e.fallback
	}
	t := 4 * e.ewma
	if t < minRPCTimeout {
		t = minRPCTimeout
	}
	return t
}

// maxDecayedRTT caps how far repeated timeouts can inflate the estimate
// (deadline cap: 4× this value).
const maxDecayedRTT = 2 * time.Second

// decay reacts to a timed-out RPC. Timeouts never produce an RTT sample,
// so without decay an estimator trained on a fast pre-restart peer keeps
// issuing the same too-tight deadline forever — every call to the slower
// recovered peer times out, and no observation can ever correct the
// profile. Doubling the estimate (capped) on each timeout breaks the loop
// deterministically: deadlines grow until calls start succeeding, and the
// successes then re-tighten the EWMA.
func (e *rttEstimator) decay() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ewma == 0 {
		// Pre-observation: start the backoff from the fallback deadline's
		// implied RTT so the next timeout() answers 2× the fallback.
		e.ewma = e.fallback / 2
		return
	}
	e.ewma *= 2
	if e.ewma > maxDecayedRTT {
		e.ewma = maxDecayedRTT
	}
}

// reset discards all observed history, returning the estimator to its
// seeded pre-observation fallback — the clean-slate hook for tests and for
// operators who know the network just changed under the estimator.
func (e *rttEstimator) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ewma = 0
}

type ref = overlay.Ref

// xorDist returns the XOR distance between two identifiers.
func xorDist(a, b dht.ID) dht.ID {
	var out dht.ID
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// closerTo reports whether a is strictly closer to target than b in the
// XOR metric, with ties (only possible when a == b) broken false.
func closerTo(target, a, b dht.ID) bool {
	return xorDist(a, target).Cmp(xorDist(b, target)) < 0
}

// node is one Kademlia peer's routing state.
type node struct {
	*overlay.Node
	r *Routing

	mu      sync.Mutex
	buckets [dht.IDBits][]ref // buckets[i]: contacts sharing exactly i prefix bits
}

// Routing messages. Each carries its sender, which the receiver
// opportunistically inserts into its routing table — Kademlia's
// self-maintaining state.
type (
	pingReq     struct{ From ref }
	findNodeReq struct {
		From   ref
		Target dht.ID
	}
	findNodeResp struct{ Closest []ref }
	// applyReq is the closure-carrying apply (overlay.Router.ApplyMsg).
	applyReq struct {
		Key dht.Key
		Fn  dht.ApplyFunc
	}
)

// Register every kademlia routing message with the transport codec so
// overlays run unchanged over framed TCP. applyReq is deliberately absent:
// it carries a closure, which only an inline transport can deliver.
func init() {
	transport.RegisterType(pingReq{})
	transport.RegisterType(findNodeReq{})
	transport.RegisterType(findNodeResp{})
}

// Reset implements overlay.NodeRouter.
func (n *node) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.buckets = [dht.IDBits][]ref{}
}

// HandleRPC implements overlay.NodeRouter.
func (n *node) HandleRPC(_ transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		n.observe(r.From)
		return n.Ref(), nil
	case findNodeReq:
		n.observe(r.From)
		return findNodeResp{Closest: n.closest(r.Target, K)}, nil
	case applyReq:
		return n.Apply(r.Key, r.Fn)
	default:
		return nil, overlay.ErrUnknownRequest
	}
}

// observe inserts a contact into its k-bucket (move-to-front on
// re-observation; drop when full, preferring long-lived contacts, per the
// paper's LRU policy without the ping-eviction refinement).
func (n *node) observe(c ref) {
	if c.IsZero() || c.Addr == n.Addr() {
		return
	}
	i := n.ID().CommonPrefixDigits(c.ID, 1)
	if i >= dht.IDBits {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bucket := n.buckets[i]
	for j, existing := range bucket {
		if existing.Addr == c.Addr {
			// Move to front (most recently seen).
			copy(bucket[1:j+1], bucket[:j])
			bucket[0] = c
			return
		}
	}
	if len(bucket) < K {
		n.buckets[i] = append([]ref{c}, bucket...)
	}
	// Bucket full: keep the existing (older, more reliable) contacts.
}

// evict removes a dead contact.
func (n *node) evict(c ref) {
	i := n.ID().CommonPrefixDigits(c.ID, 1)
	if i >= dht.IDBits {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bucket := n.buckets[i]
	for j, existing := range bucket {
		if existing.Addr == c.Addr {
			n.buckets[i] = append(bucket[:j], bucket[j+1:]...)
			return
		}
	}
}

// closest returns up to count known contacts closest to target (including
// the node itself).
func (n *node) closest(target dht.ID, count int) []ref {
	cands := append(n.knownContacts(), n.Ref())
	sort.Slice(cands, func(i, j int) bool {
		return closerTo(target, cands[i].ID, cands[j].ID)
	})
	if len(cands) > count {
		cands = cands[:count]
	}
	return cands
}

// knownContacts returns every routing-table contact.
func (n *node) knownContacts() []ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []ref
	for i := range n.buckets {
		out = append(out, n.buckets[i]...)
	}
	return out
}

// Neighbours implements overlay.NodeRouter: every contact is a candidate;
// the kernel ranks them by XOR distance to the key.
func (n *node) Neighbours(dht.ID) []ref { return n.knownContacts() }

// Owns implements overlay.NodeRouter: no known contact is closer to h. Runs
// after the stabilization round evicted dead contacts, so the comparison is
// against live peers only.
func (n *node) Owns(h dht.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.buckets {
		for _, c := range n.buckets[i] {
			if closerTo(h, c.ID, n.ID()) {
				return false
			}
		}
	}
	return true
}

// Config tunes an Overlay: the kernel's configuration (Replication is the
// original paper's "store at the k closest" rule, capped at K; Seed also
// drives the pre-observation RPC timeout fallback) plus the lookup engine's.
type Config struct {
	overlay.Config
	// Alpha overrides the lookup concurrency factor; 0 means the package
	// default Alpha. It bounds how many candidate RPCs one lookup round
	// issues concurrently.
	Alpha int
	// Serial forces the historical one-RPC-at-a-time lookup and
	// liveness-probe path. It is kept as the before/after yardstick for
	// the α-parallel rewrite: accounting (Hops, Lookups) is identical in
	// both modes for a fixed seed, only wall-clock and ping scheduling
	// differ (serial liveness probing early-exits after the first live
	// contact; parallel probing pings all candidates at once and
	// adjudicates in closest order).
	Serial bool
	// RPCTimeout fixes the per-RPC deadline; 0 means adaptive (4× the
	// EWMA of observed round trips, floored at 200ms, with a
	// seeded-deterministic fallback before the first observation).
	RPCTimeout time.Duration
}

// Overlay is the overlay kernel running Kademlia routing.
type Overlay = overlay.Overlay

// Routing is Kademlia's overlay.Router: the lookup engine, its adaptive
// deadline, and its counters. RoutingOf retrieves it from an Overlay.
type Routing struct {
	k          *overlay.Overlay
	alpha      int
	serial     bool
	rpcTimeout time.Duration
	rtt        rttEstimator

	mu          sync.Mutex
	lastPingErr error
	tracer      *trace.Collector

	// Pings counts liveness-probe RPCs; PingFailures counts the ones that
	// failed (dead or unreachable contact). The lookup entry node vouches
	// for itself and is never pinged, so Pings only meters real network
	// probes.
	Pings        metrics.Counter
	PingFailures metrics.Counter
	// LookupTimeouts counts overlay RPCs cut off by the adaptive deadline.
	LookupTimeouts metrics.Counter
	// LookupInFlight is the high-water mark of concurrently outstanding
	// FIND_NODE RPCs within one lookup round.
	LookupInFlight metrics.Gauge
}

// NewOverlay creates an empty overlay on net. Overlay.Hops counts FIND_NODE
// RPCs.
func NewOverlay(net transport.Interface, cfg Config) *Overlay {
	alpha := cfg.Alpha
	if alpha < 1 {
		alpha = Alpha
	}
	// The fallback timeout draws from its own derived source so the
	// entry-selection stream stays byte-identical to earlier versions for
	// a given seed.
	fallbackRng := rand.New(rand.NewSource(cfg.Seed ^ 0x746d656f75747331))
	return overlay.New(net, cfg.Config, "kademlia", K, func(k *overlay.Overlay) overlay.Router {
		return &Routing{
			k:          k,
			alpha:      alpha,
			serial:     cfg.Serial,
			rpcTimeout: cfg.RPCTimeout,
			rtt: rttEstimator{
				fallback: minRPCTimeout + time.Duration(fallbackRng.Int63n(int64(minRPCTimeout))),
			},
		}
	})
}

// RoutingOf returns the Kademlia router of an overlay built by NewOverlay.
func RoutingOf(o *Overlay) *Routing { return o.Router().(*Routing) }

// NewNode implements overlay.Router.
func (r *Routing) NewNode(n *overlay.Node) overlay.NodeRouter { return &node{Node: n, r: r} }

// ApplyMsg implements overlay.Router.
func (r *Routing) ApplyMsg(key dht.Key, fn dht.ApplyFunc) any { return applyReq{Key: key, Fn: fn} }

// Closer implements overlay.Router.
func (r *Routing) Closer(target, a, b dht.ID) bool { return closerTo(target, a, b) }

// Neighbours implements overlay.Router: one FIND_NODE for near.
func (r *Routing) Neighbours(of ref, near dht.ID) ([]ref, error) {
	oc := r.findNodeOne(of, near, of)
	return oc.resp.Closest, oc.err
}

// SetTracer attaches a trace collector: every iterative lookup is recorded
// as a KindLookup span with one KindRound child per α-batch. A nil
// collector, the default, records nothing.
func (r *Routing) SetTracer(c *trace.Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = c
}

func (r *Routing) getTracer() *trace.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Join implements overlay.NodeRouter: seed the routing table from a
// bootstrap contact (any managed node, else a configured seed), self-lookup
// to backfill buckets and announce, then claim the keys the node now owns
// from its closest neighbours.
func (n *node) Join(first bool) error {
	if first {
		return nil
	}
	r, k := n.r, n.r.k
	var bootstrap ref
	if local := k.Nodes(); len(local) > 0 {
		bootstrap = overlay.RefOf(local[0])
	} else {
		var err error
		if bootstrap, err = k.Entry(); err != nil {
			return fmt.Errorf("kademlia: join %q: %w", n.Addr(), err)
		}
	}
	n.observe(bootstrap)
	closest, err := r.iterativeFindNode(n.Ref(), n.ID())
	if err != nil {
		return fmt.Errorf("kademlia: join %q: %w", n.Addr(), err)
	}
	for _, c := range closest {
		n.observe(c)
		if c.Addr == n.Addr() {
			continue
		}
		// A contact that cannot be reached is skipped: stabilization
		// evicts it.
		if err := k.Claim(n.Node, c); err != nil {
			k.NoteMaintenanceError(fmt.Errorf("kademlia: join %q: %w", n.Addr(), err))
		}
	}
	return nil
}

// Unlink implements overlay.NodeRouter. Kademlia sends no departure notice:
// contacts that stop answering are evicted by their peers' next refresh.
func (n *node) Unlink() {}

// RPCDeadline exposes the current adaptive per-RPC deadline, for tests and
// diagnostics.
func (r *Routing) RPCDeadline() time.Duration {
	if r.rpcTimeout > 0 {
		return r.rpcTimeout
	}
	return r.rtt.timeout()
}

// ResetRTTEstimate discards the adaptive timeout's observed history,
// returning it to the seeded pre-observation fallback. Use when the
// network demonstrably changed under the estimator (e.g. a latency model
// swap in an experiment); routine restarts do not need it — the decay path
// already un-sticks a stale-low profile.
func (r *Routing) ResetRTTEstimate() { r.rtt.reset() }

// Tick implements overlay.Router: every node pings its contacts, evicts the
// dead, and re-looks-up its own identifier to heal bucket coverage.
func (r *Routing) Tick() {
	net := r.k.Net()
	for _, kn := range r.k.LocalNodes() {
		n, addr := kn.Routing().(*node), kn.Addr()
		for _, c := range n.knownContacts() {
			if _, err := net.Call(addr, c.Addr, pingReq{From: n.Ref()}); err != nil {
				n.evict(c)
			}
		}
		// Refresh self-lookup: failures mean the node could not rebuild
		// bucket coverage this round. Count them; the next round retries.
		if _, err := r.iterativeFindNode(n.Ref(), n.ID()); err != nil {
			r.k.NoteMaintenanceError(fmt.Errorf("kademlia: refresh find-node at %q: %w", addr, err))
		}
	}
}

// timedCall issues one overlay RPC under the adaptive per-RPC deadline. On
// success the modeled round trip feeds the RTT estimator, tightening future
// deadlines. A timeout abandons the in-flight call (its goroutine drains
// into a buffered channel) and returns ErrRPCTimeout.
func (r *Routing) timedCall(to transport.NodeID, req any) (any, error) {
	net, client := r.k.Net(), r.k.Client()
	timeout := r.RPCDeadline()
	type result struct {
		resp any
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := net.Call(client, to, req)
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err == nil {
			r.rtt.observe(net.OneWayLatency(client, to) + net.OneWayLatency(to, client))
		}
		return res.resp, res.err
	case <-timer.C:
		r.LookupTimeouts.Inc()
		if r.rpcTimeout <= 0 {
			// Adaptive mode: widen the next deadline so a stale-low RTT
			// profile cannot time out every future call indefinitely.
			r.rtt.decay()
		}
		return nil, fmt.Errorf("%w: %q after %v", ErrRPCTimeout, to, timeout)
	}
}

// findOutcome is the result of one FIND_NODE RPC in a lookup round. A
// malformed response (failed findNodeResp assertion) is folded into err so
// the merge step treats it exactly like an unreachable contact — it must
// not keep its slot in the shortlist.
type findOutcome struct {
	resp findNodeResp
	err  error
}

// findNodeRound issues the round's batch of FIND_NODE RPCs — concurrently
// up to α in the default mode, one at a time under Config.Serial — and
// returns outcomes positionally aligned with batch. Hops accounting happens
// up front (one per issued RPC, identical in both modes), and results are
// merged by the caller in batch order, so the counters and the shortlist
// evolution for a fixed seed do not depend on goroutine scheduling.
func (r *Routing) findNodeRound(origin ref, target dht.ID, batch []ref) []findOutcome {
	r.k.Hops.Add(int64(len(batch)))
	out := make([]findOutcome, len(batch))
	if r.serial || len(batch) == 1 {
		r.LookupInFlight.Observe(1)
		for i, c := range batch {
			out[i] = r.findNodeOne(origin, target, c)
		}
		return out
	}
	r.LookupInFlight.Observe(int64(len(batch)))
	var wg sync.WaitGroup
	for i, c := range batch {
		wg.Add(1)
		go func(i int, c ref) {
			defer wg.Done()
			out[i] = r.findNodeOne(origin, target, c)
		}(i, c)
	}
	wg.Wait()
	return out
}

func (r *Routing) findNodeOne(origin ref, target dht.ID, c ref) findOutcome {
	respAny, err := r.timedCall(c.Addr, findNodeReq{From: origin, Target: target})
	if err != nil {
		return findOutcome{err: err}
	}
	resp, ok := respAny.(findNodeResp)
	if !ok {
		return findOutcome{err: fmt.Errorf("kademlia: bad find-node response %T from %q", respAny, c.Addr)}
	}
	return findOutcome{resp: resp}
}

// iterativeFindNode runs Kademlia's iterative node lookup from the given
// origin, returning the K closest live contacts to target. Each round
// queries the α best unqueried candidates concurrently (findNodeRound);
// outcomes are merged in batch order, so for a fixed seed the rounds, the
// Hops counter, and the returned contacts are reproducible regardless of
// how the concurrent RPCs interleave.
func (r *Routing) iterativeFindNode(origin ref, target dht.ID) ([]ref, error) {
	tracer := r.getTracer()
	var span trace.SpanID
	if tracer != nil {
		span = tracer.Begin(0, trace.KindLookup, "kademlia find-node",
			trace.Int("alpha", int64(r.alpha)))
	}
	type candidate struct {
		ref     ref
		queried bool
	}
	shortlist := map[transport.NodeID]*candidate{
		origin.Addr: {ref: origin},
	}
	sortedList := func() []*candidate {
		out := make([]*candidate, 0, len(shortlist))
		for _, c := range shortlist {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool {
			return closerTo(target, out[i].ref.ID, out[j].ref.ID)
		})
		return out
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		// Termination rule (per the paper): stop once the K closest known
		// candidates have all been queried — not merely when a round adds
		// nothing new, since an unqueried near candidate can still reveal
		// closer nodes.
		batch := make([]*candidate, 0, r.alpha)
		top := sortedList()
		if len(top) > K {
			top = top[:K]
		}
		for _, c := range top {
			if len(batch) >= r.alpha {
				break
			}
			if !c.queried {
				batch = append(batch, c)
			}
		}
		if len(batch) == 0 {
			break
		}
		refs := make([]ref, len(batch))
		for i, c := range batch {
			c.queried = true
			refs[i] = c.ref
		}
		var roundSpan trace.SpanID
		if tracer != nil {
			roundSpan = tracer.Begin(span, trace.KindRound, "find-node round",
				trace.Int("batch", int64(len(refs))))
		}
		outcomes := r.findNodeRound(origin, target, refs)
		failed := 0
		for i, oc := range outcomes {
			if oc.err != nil {
				// Call failure, timeout, or malformed response: the
				// contact is useless — drop it from the shortlist so it
				// neither occupies a top-K slot nor appears in the result.
				delete(shortlist, refs[i].Addr)
				failed++
				continue
			}
			for _, found := range oc.resp.Closest {
				if _, seen := shortlist[found.Addr]; !seen {
					shortlist[found.Addr] = &candidate{ref: found}
				}
			}
		}
		if tracer != nil {
			tracer.End(roundSpan, trace.Int("failed", int64(failed)))
		}
	}
	out := make([]ref, 0, K)
	for _, c := range sortedList() {
		if len(out) >= K {
			break
		}
		out = append(out, c.ref)
	}
	if tracer != nil {
		tracer.End(span, trace.Int("rounds", int64(rounds)), trace.Int("found", int64(len(out))))
	}
	if len(out) == 0 {
		return nil, errors.New("kademlia: lookup found no contact")
	}
	return out, nil
}

// LastPingError returns the most recent failed liveness probe, or nil. Pair
// with PingFailures to see both rate and cause.
func (r *Routing) LastPingError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastPingErr
}

// notePingError records one failed liveness probe.
func (r *Routing) notePingError(err error) {
	r.PingFailures.Inc()
	r.mu.Lock()
	r.lastPingErr = err
	r.mu.Unlock()
}

// pingContact probes one contact for liveness. The lookup entry node just
// answered the iterative lookup, so it vouches for itself without paying a
// ping RPC (the old path pinged it redundantly). Failures are metered and
// surfaced via LastPingError rather than silently discarded.
func (r *Routing) pingContact(entry ref, c ref) bool {
	if c.Addr == entry.Addr {
		return true
	}
	r.Pings.Inc()
	if _, err := r.timedCall(c.Addr, pingReq{From: entry}); err != nil {
		r.notePingError(fmt.Errorf("kademlia: liveness ping %q: %w", c.Addr, err))
		return false
	}
	return true
}

// probeLive returns the first count live contacts from closest, preserving
// closest-first order. The default mode pings every candidate concurrently
// and then adjudicates in closest order — first-count-live wins, and the
// winner set is deterministic because selection ignores arrival order.
// Under Config.Serial it reproduces the historical behaviour: ping one at a
// time, stop at count live (fewer Pings, sum-of-RTT wall-clock).
func (r *Routing) probeLive(entry ref, closest []ref, count int) []ref {
	out := make([]ref, 0, count)
	if r.serial {
		for _, c := range closest {
			if len(out) >= count {
				break
			}
			if r.pingContact(entry, c) {
				out = append(out, c)
			}
		}
		return out
	}
	live := make([]bool, len(closest))
	var wg sync.WaitGroup
	for i, c := range closest {
		wg.Add(1)
		go func(i int, c ref) {
			defer wg.Done()
			live[i] = r.pingContact(entry, c)
		}(i, c)
	}
	wg.Wait()
	for i, c := range closest {
		if len(out) >= count {
			break
		}
		if live[i] {
			out = append(out, c)
		}
	}
	return out
}

// Route implements overlay.Router: an iterative lookup from entry, then a
// liveness probe that settles on the closest contact that answers.
func (r *Routing) Route(entry ref, target dht.ID) (ref, error) {
	closest, err := r.iterativeFindNode(entry, target)
	if err != nil {
		return ref{}, err
	}
	out := r.probeLive(entry, closest, 1)
	if len(out) == 0 {
		return ref{}, fmt.Errorf("kademlia: no live contact near %v", target)
	}
	return out[0], nil
}
