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
// and a finger table for O(log n) routing. Lookups are iterative: the
// querying side repeatedly asks the closest known predecessor for a better
// next hop, counting each RPC as one overlay hop.
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

	mu      sync.Mutex
	pred    ref
	succs   []ref // succs[0] is the immediate successor; never empty once joined
	fingers [dht.IDBits]ref
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
	n.fingers = [dht.IDBits]ref{}
}

// HandleRPC implements overlay.NodeRouter.
func (n *node) HandleRPC(from transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		return n.Ref(), nil
	case getPredReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.pred, nil
	case getSuccsReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		return append([]ref(nil), n.succs...), nil
	case notifyReq:
		n.handleNotify(r.Candidate)
		return struct{}{}, nil
	case lookupStepReq:
		return n.handleLookupStep(r.Target), nil
	case setPredReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		n.pred = r.Pred
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
	n.succs = n.distinctSuccs(from, append([]ref{succ}, n.succs[min(1, was):]...))
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
	n.succs = truncateSuccs(n.distinctSuccs(from, append(n.succs, list...)))
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
// answer; otherwise return the closest preceding node from the finger table
// and successor list.
func (n *node) handleLookupStep(target dht.ID) lookupStepResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succs) == 0 {
		// Not joined: we are the whole ring.
		return lookupStepResp{Done: true, Next: n.Ref()}
	}
	succ := n.succs[0]
	if target.Between(n.ID(), succ.ID) {
		return lookupStepResp{Done: true, Next: succ}
	}
	return lookupStepResp{Next: n.closestPrecedingLocked(target)}
}

// closestPrecedingLocked scans fingers (then the successor list) for the
// node most closely preceding target. Callers hold n.mu.
func (n *node) closestPrecedingLocked(target dht.ID) ref {
	best := n.Ref()
	for i := dht.IDBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.IsZero() && f.ID.BetweenOpen(n.ID(), target) {
			best = f
			break
		}
	}
	for _, s := range n.succs {
		if !s.IsZero() && s.ID.BetweenOpen(best.ID, target) {
			best = s
		}
	}
	if best.Addr == n.Addr() && len(n.succs) > 0 {
		// No finger helps; fall forward to the successor to guarantee
		// progress around the ring.
		return n.succs[0]
	}
	return best
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
