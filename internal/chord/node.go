// Package chord implements the Chord distributed hash table (Stoica et al.,
// SIGCOMM 2001) as a Router for the overlay kernel (internal/overlay), over
// any transport.Interface — the simulated network in internal/simnet or
// real framed TCP. It is one of the pluggable substrates beneath the
// m-LIGHT index: the index only sees the generic dht.DHT interface,
// demonstrating the paper's claim that an over-DHT index "is adaptable to
// any DHT substrate".
//
// Nodes live on a 160-bit identifier ring (SHA-1 of their address). Each
// node maintains a predecessor pointer, a successor list for resilience,
// and a finger table for O(log n) routing, held in one routing table
// (table.go) with every finger run and successor once, its distance from the
// node and its step reply worked out when it is written, so a lookup step is
// a subtraction and a few compares. Lookups are iterative (overlay.Route):
// the querying side repeatedly asks the closest known predecessor for a
// better next hop, counting each RPC as one overlay hop.
//
// Stabilization (stabilize / notify / fix-fingers) runs as explicit rounds
// driven by the kernel's Stabilize, keeping simulations deterministic.
// Fix-fingers routes a finger's start only when the finger before it does
// not already own that start, so a round routes about one target per
// distinct finger (≈ log₂ N + 1) rather than all 160.
// Storage, replication, membership and the dht.DHT methods are the
// kernel's; this package holds routing state and routing messages only.
package chord

import (
	"slices"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// SuccessorListLen is the length of each node's successor list. It also
// bounds replication: a key's copies live on its owner's successors.
const SuccessorListLen = 4

type ref = overlay.Ref

// node is one Chord peer's routing state.
type node struct {
	*overlay.Node
	r *router

	mu    sync.Mutex
	pred  ref
	succs []ref // succs[0] is the immediate successor; never empty once joined
	tab   table // the fingers, and the replies of a lookup step
}

// Routing messages. Each is handled synchronously by node.HandleRPC.
type (
	pingReq        struct{}
	getPredReq     struct{}
	getSuccsReq    struct{}
	notifyReq      struct{ Candidate ref }
	lookupStepReq  struct{ Target dht.ID }
	lookupStepResp struct {
		Done bool
		Next ref // the answer when Done, otherwise the next hop
	}
	// setPredReq / setSuccReq support join and graceful departure.
	setPredReq struct{ Pred ref }
	setSuccReq struct{ Succ ref }
	// applyReq is the closure-carrying apply (overlay.Router.ApplyMsg).
	applyReq struct {
		Key dht.Key
		Fn  dht.ApplyFunc
	}
)

// Register every chord routing message with the transport codec so rings
// run unchanged over framed TCP. applyReq is deliberately absent: it
// carries a closure, which only an inline transport can deliver.
func init() {
	transport.RegisterType(pingReq{})
	transport.RegisterType(getPredReq{})
	transport.RegisterType(getSuccsReq{})
	transport.RegisterType(notifyReq{})
	transport.RegisterType(lookupStepReq{})
	transport.RegisterType(lookupStepResp{})
	transport.RegisterType(setPredReq{})
	transport.RegisterType(setSuccReq{})
}

// Reset implements overlay.NodeRouter.
func (n *node) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pred = ref{}
	n.succs = nil
	n.tab = newTable(n.Ref())
}

// setSuccsLocked replaces the successor list. Callers hold n.mu.
func (n *node) setSuccsLocked(succs []ref) {
	n.succs = succs
	n.tab.setSuccs(n.Ref(), succs)
}

// setFinger makes finger i f.
func (n *node) setFinger(i int, f ref) {
	n.mu.Lock()
	n.tab.setFinger(i, f, n.succs)
	n.mu.Unlock()
}

// HandleRPC implements overlay.NodeRouter. Its arms unlock n.mu by hand: a
// deferred unlock in any of them keeps the compiler from open-coding the
// function's defers, and every lookup step would pay the runtime's deferred
// call instead.
func (n *node) HandleRPC(from transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		return n.Ref(), nil
	case getPredReq:
		n.mu.Lock()
		pred := n.pred
		n.mu.Unlock()
		return pred, nil
	case getSuccsReq:
		n.mu.Lock()
		succs := append([]ref(nil), n.succs...)
		n.mu.Unlock()
		return succs, nil
	case notifyReq:
		n.handleNotify(r.Candidate)
		return struct{}{}, nil
	case lookupStepReq:
		return n.handleLookupStep(r.Target), nil // boxed when the table was written
	case setPredReq:
		n.mu.Lock()
		n.pred = r.Pred
		n.mu.Unlock()
		return struct{}{}, nil
	case setSuccReq:
		n.setSucc(from, r.Succ)
		return struct{}{}, nil
	case applyReq:
		return n.Apply(r.Key, r.Fn)
	default:
		return nil, overlay.ErrUnknownRequest
	}
}

// setSucc makes succ the head of the successor list. A joiner names itself
// to its predecessor; a graceful leaver, sending from its own address, names
// the successor it leaves behind, which the list already holds next. The
// sender and every second copy drop out, and a list left shorter than it was
// is refilled from succ's own list, so that the node keeps as many distinct
// successors as before without waiting for a stabilize round. A refill that
// fails is left to that round.
func (n *node) setSucc(from transport.NodeID, succ ref) {
	n.mu.Lock()
	was := len(n.succs)
	n.setSuccsLocked(n.distinctSuccs(from, append([]ref{succ}, n.succs[min(1, was):]...)))
	short := len(n.succs) < was
	n.mu.Unlock()
	if !short || succ.Addr == n.Addr() {
		return
	}
	list, err := n.r.succsOf(n.Addr(), succ)
	if err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setSuccsLocked(truncateSuccs(n.distinctSuccs(from, append(n.succs, list...))))
}

// distinctSuccs keeps the head of list and, behind it, the first copy of
// every entry that is neither the node itself nor gone.
func (n *node) distinctSuccs(gone transport.NodeID, list []ref) []ref {
	out := list[:1]
	for _, s := range list[1:] {
		if s.Addr != n.Addr() && s.Addr != gone && !slices.ContainsFunc(out, func(o ref) bool { return o.Addr == s.Addr }) {
			out = append(out, s)
		}
	}
	return out
}

// handleNotify implements Chord's notify: candidate thinks it may be our
// predecessor.
func (n *node) handleNotify(candidate ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if candidate.Addr == n.Addr() {
		return
	}
	if n.pred.IsZero() || candidate.ID.BetweenOpen(n.pred.ID, n.ID()) {
		n.pred = candidate
	}
}

// handleLookupStep answers one iterative-lookup step: if the target falls
// between this node and its immediate successor, the successor is the
// answer; otherwise the closest preceding node the finger table and the
// successor list know of (table.step), in a reply boxed when it was written.
//
//lint:hotpath
func (n *node) handleLookupStep(target dht.ID) any {
	n.mu.Lock()
	reply := n.tab.step(target)
	n.mu.Unlock()
	return reply
}

// Owns implements overlay.NodeRouter: a node owns the hashes in (pred, n].
// With the predecessor unknown (it died and notify has not replaced it yet)
// nothing is claimed, so a replica is never promoted on a guess.
func (n *node) Owns(h dht.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.pred.IsZero() && h.Between(n.pred.ID, n.ID())
}

// Neighbours implements overlay.NodeRouter: a key's line of succession is
// its owner's successor list.
func (n *node) Neighbours(dht.ID) []ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]ref, 0, len(n.succs))
	for _, s := range n.succs {
		if s.Addr != n.Addr() {
			out = append(out, s)
		}
	}
	return out
}
