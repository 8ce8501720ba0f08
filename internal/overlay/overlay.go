// Package overlay is the one kernel beneath the three structured overlays
// (internal/chord, internal/pastry, internal/kademlia). Everything that is
// not routing lives here exactly once: the per-node store (a dht.Local) with
// its replicas and their lease, the management plane (join, graceful leave,
// crash, restart, client mode), the replication repair loop, the dht.DHT
// methods, the health counters, and the route loop of step-routed overlays.
// An overlay package contributes only a Router — its routing state, its
// routing messages, and the handful of decisions that differ between
// protocols: how a hash is routed to its owner (or one step of it: a
// Stepper), which neighbours stand next in line for a key, how a node wires
// itself in and out, what one maintenance round does, and whether a node
// owns a hash.
//
// The paper's premise is a substrate-agnostic put/get/lookup; the kernel is
// that premise applied to the substrates themselves.
package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/transport"
)

// ErrLookupFailed is returned when routing cannot resolve an owner, e.g.
// because routing state is stale after heavy churn. It is marked retryable:
// stale state heals after stabilization, so a retry layer may usefully try
// again.
var ErrLookupFailed = dht.Retryable(errors.New("overlay: lookup failed"))

// ErrUnknownRequest is what a NodeRouter returns for a request type that is
// not one of its routing messages; the kernel then serves the request as a
// store-plane message, or fails it.
var ErrUnknownRequest = errors.New("overlay: unknown request type")

// Ref names a node: its network address and its position in the identifier
// space (always the hash of the address, so a seed's Ref can be computed
// without asking it).
type Ref struct {
	Addr transport.NodeID
	ID   dht.ID
}

// IsZero reports whether r names no node.
func (r Ref) IsZero() bool { return r.Addr == "" }

// Router is the protocol half of an overlay: everything that depends on how
// the identifier space is routed. One Router serves all of an Overlay's
// local nodes; per-node routing state lives in the NodeRouter it creates.
type Router interface {
	// NewNode creates the routing state of a fresh local node.
	NewNode(n *Node) NodeRouter
	// Closer reports whether a is a strictly better owner of target than b.
	// This single comparator defines key ownership for the whole overlay:
	// joins claim by it, leaves and replica placement rank neighbours by it.
	Closer(target, a, b dht.ID) bool
	// Route makes one attempt to resolve the owner of target starting at
	// entry, adding every routing RPC it issues to Overlay.Hops. The owner is
	// the one the last routing step names, unpinged: Chord and Pastry may
	// return a peer that died since the last maintenance round, and the
	// caller's next call to it fails.
	Route(entry Ref, target dht.ID) (Ref, error)
	// Neighbours asks a (possibly remote) node which peers it knows around
	// the hash near — the candidates for near's replica set. NodeRouter has
	// the local form; this is the one RPC a client-mode overlay needs.
	Neighbours(of Ref, near dht.ID) ([]Ref, error)
	// Tick runs one round of routing maintenance over the local nodes:
	// probe neighbours, drop the dead, refresh tables. Failed maintenance
	// RPCs go to Overlay.NoteMaintenanceError.
	Tick()
	// ApplyMsg wraps a closure-carrying apply for an inline transport. It is
	// the one store message an overlay package names itself, so traces keep
	// saying which protocol served the apply; the NodeRouter handles it by
	// calling Node.Apply.
	ApplyMsg(key dht.Key, fn dht.ApplyFunc) any
}

// Stepper is a Router that routes by steps, through Overlay.Route.
type Stepper interface {
	Router
	// StepMsg is the step request towards target, boxed once a route.
	StepMsg(target dht.ID) any
	// ReadStep reads cur's step reply: Done and the owner, or a next hop
	// that keeps the protocol's progress rule; an error otherwise.
	ReadStep(cur Ref, target dht.ID, reply any) (done bool, next Ref, err error)
	// Detour reruns at's step over peers, its Neighbours less the dead hops:
	// Done and the owner, or the next hop; at itself when it finds none.
	Detour(at Ref, target dht.ID, peers []Ref) (done bool, next Ref)
}

// NodeRouter is one local node's routing state.
type NodeRouter interface {
	// HandleRPC serves the overlay's routing messages. For anything else it
	// returns ErrUnknownRequest itself, unwrapped.
	HandleRPC(from transport.NodeID, req any) (any, error)
	// Reset forgets all routing state (a crash wiped the process).
	Reset()
	// Join wires the node into the overlay and claims the keys it now owns
	// (Overlay.Claim). first means there is nobody to join: no other local
	// node and no seeds.
	Join(first bool) error
	// Unlink tells the node's neighbours it is leaving. Failures are counted
	// (NoteMaintenanceError), not fatal: stabilization repairs stale links.
	Unlink()
	// Owns reports whether, by this node's current view, it is the owner of
	// hash h — the test a replica must pass to be promoted to primary.
	Owns(h dht.ID) bool
	// Neighbours returns the peers this node knows around near, itself
	// excluded, in no particular order.
	Neighbours(near dht.ID) []Ref
}

// Config tunes an Overlay.
type Config struct {
	// Seed drives entry-point selection for lookups.
	Seed int64
	// Replication is the number of copies of each key (1 = primary only):
	// the owner plus the Replication-1 neighbours next in line for the key.
	// With r > 1 the overlay tolerates up to r-1 simultaneous crashes after
	// a couple of stabilization rounds. Each protocol caps it at what its
	// neighbour set can hold.
	Replication int
	// Seeds names remote entry points for lookups when the overlay manages
	// no local node (a pure client dialing a daemon cluster) or is joining
	// an overlay hosted by other processes (a daemon booting with peers).
	// Over TCP a seed is a dialable address; its identifier is the hash of
	// that address, exactly as the node at the address computes it. For a
	// pure client the seeds are also the first members of its view (view.go).
	Seeds []transport.NodeID
}

// Overlay manages a set of nodes of one protocol on one transport and
// exposes the whole overlay as a dht.DHT. It is the management plane a
// deployer would run: join, graceful leave, crash, restart, and
// stabilization rounds.
type Overlay struct {
	net         transport.Interface
	client      transport.NodeID
	replication int
	router      Router
	// retrier governs the replication RPCs (replica pushes and drops), which
	// the overlay issues itself rather than through a dht.Resilient wrapper:
	// three attempts with no sleep between them, and a breaker per replica
	// target. A push that still fails waits for the next stabilization
	// round's repair (replicaCall).
	retrier *dht.Retrier

	mu    sync.Mutex
	nodes map[transport.NodeID]*Node
	order []transport.NodeID // sorted addresses for deterministic iteration
	// crashed retains the node objects of crashed peers (their volatile
	// state already wiped by the transport's Crasher hook) so RestartNode
	// can revive them under the same identity.
	crashed map[transport.NodeID]*Node
	seeds   []Ref
	// view is client mode's member view (view.go): an immutable snapshot,
	// replaced under mu, nil whenever the overlay hosts a node.
	view           atomic.Pointer[[]Ref]
	rng            *rand.Rand
	lastReplicaErr error
	lastMaintErr   error

	// Lookups counts completed lookups; Hops counts every routing RPC
	// issued, so Hops/Lookups is the mean route length.
	Lookups metrics.Counter
	Hops    metrics.Counter
	Detours metrics.Counter // the dead hops Route went around
	// DirectSends counts the store-plane requests a client-mode overlay sent
	// straight to a view member instead of routing first. DirectDeclined
	// counts the ones whose receiver did not own the key; DirectFailed the
	// ones whose call failed, which also dropped the member from the view.
	// Both kinds were then routed (but for a failed op, which is its caller's
	// error: Do), so sends minus declined minus failed is the number of
	// lookups saved.
	DirectSends    metrics.Counter
	DirectDeclined metrics.Counter
	DirectFailed   metrics.Counter
	// ReplicationErrors counts replica pushes and drops that still failed
	// after the retry budget — replicas that will stay missing until the
	// next stabilization round repairs them.
	ReplicationErrors metrics.Counter
	// MaintenanceErrors counts failed maintenance work: routing RPCs lost
	// during a Tick or an Unlink, journal writes that blocked a promotion,
	// keys a leaving node could not hand off. None is fatal (the next round
	// retries), but a rising counter means churn or loss is outpacing
	// repair.
	MaintenanceErrors metrics.Counter
}

var (
	_ dht.DHT        = (*Overlay)(nil)
	_ dht.Enumerator = (*Overlay)(nil)
	_ dht.Doer       = (*Overlay)(nil)
)

// New creates an empty overlay on net. name is the protocol's name: it
// labels the client-side source address of overlay-initiated RPCs
// ("chord-client"). maxReplication is the protocol's cap on
// Config.Replication. newRouter receives the kernel so the Router can reach
// the transport, the counters and the local nodes.
func New(net transport.Interface, cfg Config, name string, maxReplication int, newRouter func(*Overlay) Router) *Overlay {
	replication := cfg.Replication
	if replication < 1 {
		replication = 1
	}
	if replication > maxReplication {
		replication = maxReplication
	}
	seeds := make([]Ref, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		seeds = append(seeds, RefOf(s))
	}
	o := &Overlay{
		net:         net,
		client:      transport.NodeID(name + "-client"),
		seeds:       seeds,
		replication: replication,
		nodes:       make(map[transport.NodeID]*Node),
		crashed:     make(map[transport.NodeID]*Node),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		retrier:     dht.NewRetrier(dht.RetryPolicy{MaxAttempts: 3, Seed: cfg.Seed, Sleep: dht.NoSleep}, nil),
	}
	o.router = newRouter(o)
	o.resetViewLocked()
	return o
}

// RefOf returns the Ref of the node at addr.
func RefOf(addr transport.NodeID) Ref {
	return Ref{Addr: addr, ID: dht.HashString(string(addr))}
}

// Net returns the transport the overlay runs on.
func (o *Overlay) Net() transport.Interface { return o.net }

// Client returns the source address of overlay-initiated RPCs that no local
// node stands behind (lookups, client-mode stores).
func (o *Overlay) Client() transport.NodeID { return o.client }

// Replication returns the effective (clamped) copy count.
func (o *Overlay) Replication() int { return o.replication }

// Router returns the overlay's protocol half.
func (o *Overlay) Router() Router { return o.router }

// ReplicationRetrier exposes the retry executor guarding replication RPCs,
// so tests and experiments can inspect its counters and breaker states.
func (o *Overlay) ReplicationRetrier() *dht.Retrier { return o.retrier }

// LastReplicationError returns the most recent replication push or drop
// that failed after exhausting its retry budget, or nil. It surfaces
// persistent replica loss that the periodic repair has not yet healed.
func (o *Overlay) LastReplicationError() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastReplicaErr
}

// LastMaintenanceError returns the most recent failed maintenance
// operation, or nil. Pair with MaintenanceErrors to see both rate and cause.
func (o *Overlay) LastMaintenanceError() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastMaintErr
}

// NoteMaintenanceError records one failed maintenance operation.
func (o *Overlay) NoteMaintenanceError(err error) {
	o.MaintenanceErrors.Inc()
	o.mu.Lock()
	o.lastMaintErr = err
	o.mu.Unlock()
}

// Nodes returns the managed (live) node addresses in sorted order.
func (o *Overlay) Nodes() []transport.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]transport.NodeID(nil), o.order...)
}

// NumNodes returns the number of live managed nodes.
func (o *Overlay) NumNodes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.nodes)
}

// NodeAt returns the managed node at addr.
func (o *Overlay) NodeAt(addr transport.NodeID) (*Node, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[addr]
	return n, ok
}

// LocalNodes returns the managed nodes in address order.
func (o *Overlay) LocalNodes() []*Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Node, len(o.order))
	for i, addr := range o.order {
		out[i] = o.nodes[addr]
	}
	return out
}

// Entry selects a routing entry point: a random live managed node when the
// overlay hosts any, otherwise a random member of the client-mode view — the
// configured seeds and the owners met since.
func (o *Overlay) Entry() (Ref, error) {
	entry, _, err := o.entryAfter(-1)
	return entry, err
}

// entryAfter returns the entry point that follows index prev in rotation
// over the local nodes (the view, when there are none), and its index. A
// negative prev draws the start of a rotation at random.
func (o *Overlay) entryAfter(prev int) (Ref, int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var view []Ref
	n := len(o.order)
	if n == 0 {
		if v := o.view.Load(); v != nil {
			view, n = *v, len(*v)
		}
	}
	if n == 0 {
		return Ref{}, 0, dht.ErrNoPeers
	}
	var at int
	if prev < 0 {
		at = o.rng.Intn(n)
	} else {
		at = (prev + 1) % n
	}
	if view != nil {
		return view[at], at, nil
	}
	return o.nodes[o.order[at]].Ref(), at, nil
}

// Route is the one step loop, Chord's and Pastry's Router.Route: it sends s's
// step to each hop from entry, every RPC counted in Hops, and stops on Done. It
// refuses a step naming the node asked or breaking s's progress rule. A middle
// hop whose call failed costs a detour (Detours): the node that named it reruns
// its step over its Neighbours less the dead hops, which are not asked again. A
// failed entry fails the route, and so does an owner that a dead hop ranks
// better than (Router.Closer). It returns the owner, unpinged, and the node
// that answered.
func (o *Overlay) Route(s Stepper, entry Ref, target dht.ID) (owner, answered Ref, err error) {
	const maxHops = 512
	req := s.StepMsg(target)
	var prev, next Ref
	var dead []Ref
	var done bool
	cur := entry
	for range maxHops {
		var reply any
		err := transport.ErrUnreachable // as a hop found dead is not asked again
		if !slices.Contains(dead, cur) {
			reply, err = o.net.Call(o.client, cur.Addr, req)
			o.Hops.Inc()
		}
		switch {
		case err == nil:
			done, next, err = s.ReadStep(cur, target, reply)
		case !prev.IsZero():
			dead, cur = append(dead, cur), prev
			o.Detours.Inc()
			var peers []Ref
			if peers, err = s.Neighbours(cur, target); err == nil {
				done, next = s.Detour(cur, target, slices.DeleteFunc(peers, func(p Ref) bool { return slices.Contains(dead, p) }))
			}
			o.Hops.Inc()
		}
		switch {
		case err != nil:
			return Ref{}, Ref{}, fmt.Errorf("overlay: step via %q: %w", cur.Addr, err)
		case done && slices.ContainsFunc(dead, func(d Ref) bool { return !s.Closer(target, next.ID, d.ID) }):
			return Ref{}, Ref{}, fmt.Errorf("overlay: route ends at %q behind a dead hop, which may own the target", next.Addr)
		case done:
			return next, cur, nil
		case next.Addr == cur.Addr:
			return Ref{}, Ref{}, fmt.Errorf("overlay: route stalled at %q", cur.Addr)
		}
		prev, cur = cur, next
	}
	return Ref{}, Ref{}, fmt.Errorf("overlay: route exceeded %d hops", maxHops)
}

// Lookup resolves the node responsible for target, retrying from the next
// entry point when stale routing state or a dead entry fails an attempt. The
// attempts rotate from a random start, so they never land on the same entry
// twice while another is left: with one dead seed of four, independent draws
// would fail a lookup outright one time in 64. A client-mode overlay adds the
// owner found to its view. The owner is Router.Route's: on Chord and Pastry it
// may have died since the last maintenance round, and a call to it then fails.
func (o *Overlay) Lookup(target dht.ID) (Ref, error) {
	const retries = 3
	var lastErr error
	at := -1
	for attempt := 0; attempt < retries; attempt++ {
		entry, next, err := o.entryAfter(at)
		if err != nil {
			return Ref{}, err
		}
		at = next
		found, err := o.router.Route(entry, target)
		if err == nil {
			o.Lookups.Inc()
			if o.view.Load() != nil {
				o.learn(found)
			}
			return found, nil
		}
		lastErr = err
	}
	return Ref{}, fmt.Errorf("%w: %v", ErrLookupFailed, lastErr)
}

// MeanRouteLength returns the average routing RPCs per completed lookup.
func (o *Overlay) MeanRouteLength() float64 {
	lookups := o.Lookups.Load()
	if lookups == 0 {
		return 0
	}
	return float64(o.Hops.Load()) / float64(lookups)
}

// Put implements dht.DHT.
func (o *Overlay) Put(key dht.Key, value any) error {
	h := dht.HashKey(key)
	owner, _, err := o.send(h, storeReq{Key: key, Value: value}, false)
	if err != nil {
		return err
	}
	o.replicate(owner, h, key, value)
	return nil
}

// Get implements dht.DHT.
func (o *Overlay) Get(key dht.Key) (any, bool, error) {
	_, respAny, err := o.send(dht.HashKey(key), retrieveReq{Key: key}, false)
	if err != nil {
		return nil, false, err
	}
	resp, ok := respAny.(retrieveResp)
	if !ok {
		return nil, false, fmt.Errorf("overlay: bad retrieve response %T", respAny)
	}
	return resp.Value, resp.Found, nil
}

// Remove implements dht.DHT.
func (o *Overlay) Remove(key dht.Key) error {
	h := dht.HashKey(key)
	owner, _, err := o.send(h, removeReq{Key: key}, false)
	if err != nil {
		return err
	}
	o.dropReplicas(owner, h, key)
	return nil
}

// Apply implements dht.DHT: the transform executes on the owning peer, as
// an installed application handler would. The post-apply value is pushed to
// the replicas.
func (o *Overlay) Apply(key dht.Key, fn dht.ApplyFunc) error {
	h := dht.HashKey(key)
	var owner Ref
	var value any
	var keep bool
	var err error
	if transport.SupportsInline(o.net) {
		owner, value, keep, err = o.applyInline(h, key, fn)
	} else {
		owner, value, keep, err = o.applyRemote(h, key, fn)
	}
	if err != nil {
		return err
	}
	if keep {
		o.replicate(owner, h, key, value)
	} else {
		o.dropReplicas(owner, h, key)
	}
	return nil
}

// Do implements dht.Doer on every transport: the op travels as data, one
// opReq to the key's owner — straight to the best view member in client mode,
// declinable and then routed like every store-plane request, but never sent
// twice (send) — executed there under the store lock (Node.do) and answered
// with the op's result. An op that writes nothing leaves the owner's store,
// journal and replicas untouched. The stored value comes back only to an
// overlay that has replicas to push it to.
func (o *Overlay) Do(key dht.Key, op dht.Op) (any, error) {
	h := dht.HashKey(key)
	owner, respAny, err := o.send(h, opReq{Key: key, Op: op, Echo: o.replication > 1}, true)
	if err != nil {
		return nil, err
	}
	resp, ok := respAny.(opResp)
	if !ok {
		return nil, fmt.Errorf("overlay: bad op response %T", respAny)
	}
	if resp.Wrote {
		o.replicate(owner, h, key, resp.Value)
	}
	return resp.Result, nil
}

// applyInline ships the closure itself to the routed owner. It never goes
// direct: the message is the Router's (ApplyMsg), and only simulations and
// tests run a client-mode overlay on an inline transport.
func (o *Overlay) applyInline(h dht.ID, key dht.Key, fn dht.ApplyFunc) (owner Ref, value any, keep bool, err error) {
	if owner, err = o.Lookup(h); err != nil {
		return owner, nil, false, err
	}
	respAny, err := o.net.Call(o.client, owner.Addr, o.router.ApplyMsg(key, fn))
	if err != nil {
		return owner, nil, false, err
	}
	resp, ok := respAny.(ApplyResp)
	if !ok {
		return owner, nil, false, fmt.Errorf("overlay: bad apply response %T", respAny)
	}
	return owner, resp.Value, resp.Keep, nil
}

// applyRemote runs the transform client-side under the wire-safe versioned
// CAS protocol, because a closure cannot cross a real socket. The opening
// GetVerReq finds the owner the way every store-plane request does (send);
// the CASReqs that follow go to the node that answered it, so a failure
// after the snapshot reaches the retry layer as an error instead of
// re-running the transform against some other node here.
func (o *Overlay) applyRemote(h dht.ID, key dht.Key, fn dht.ApplyFunc) (owner Ref, value any, keep bool, err error) {
	value, keep, err = dht.RemoteApply(func(req any) (resp any, err error) {
		if owner.IsZero() {
			owner, resp, err = o.send(h, req, false)
			return resp, err
		}
		return o.net.Call(o.client, owner.Addr, req)
	}, key, fn)
	return owner, value, keep, err
}

// Owner implements dht.DHT. It returns Lookup's owner, which on Chord and
// Pastry may have died since the last maintenance round.
func (o *Overlay) Owner(key dht.Key) (string, error) {
	owner, err := o.Lookup(dht.HashKey(key))
	if err != nil {
		return "", err
	}
	return string(owner.Addr), nil
}

// Range implements dht.Enumerator by walking every managed node's primary
// store. Replicas are not enumerated, so each key is reported once.
func (o *Overlay) Range(fn func(key dht.Key, value any) bool) error {
	for _, n := range o.LocalNodes() {
		for k, v := range n.StoreSnapshot() {
			if !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}
