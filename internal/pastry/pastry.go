// Package pastry implements a Pastry-style prefix-routing overlay (Rowstron
// & Druschel, Middleware 2001) in the maintenance style of Bamboo (Rhea et
// al., USENIX 2004) — the DHT the m-LIGHT paper actually deployed on — as a
// Router for the overlay kernel (internal/overlay). It is the second
// pluggable substrate beneath the index, alongside internal/chord.
//
// Nodes keep a leaf set (the numerically nearest peers on both sides of the
// 160-bit ring) and a routing table indexed by shared hex-digit prefix
// length. A key is owned by the node whose identifier is numerically
// closest on the ring (ties to the smaller identifier). Routing is greedy:
// each hop forwards to its best-known strictly closer peer, which with a
// populated routing table takes O(log₁₆ n) hops.
//
// Following Bamboo's design point, repair is periodic rather than reactive:
// each Stabilize round re-probes neighbours, merges leaf sets, and refills
// routing tables, which is what recovers the overlay after churn. Leaf-set
// replication (PAST/Bamboo style) falls out of the kernel's placement rule:
// a key's copies go to the known peers nearest the key, which are leaf-set
// members of its owner.
package pastry

import (
	"fmt"
	"sort"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

const (
	// digitBits is the routing digit width: base-16 digits as in Pastry's
	// default configuration.
	digitBits = 4
	numCols   = 1 << digitBits
	// leafHalf is the number of leaf-set entries kept on each side. It also
	// bounds replication: a key's copies live in its owner's leaf set.
	leafHalf = 4
)

var numRows = dht.NumDigits(digitBits)

type ref = overlay.Ref

// Overlay is the overlay kernel running Pastry routing.
type Overlay = overlay.Overlay

// Config tunes an Overlay. Replication is capped at leafHalf.
type Config = overlay.Config

// NewOverlay creates an empty overlay on net.
func NewOverlay(net transport.Interface, cfg Config) *Overlay {
	return overlay.New(net, cfg, "pastry", leafHalf, func(k *overlay.Overlay) overlay.Router {
		return &router{k: k}
	})
}

// closerTo reports whether a is strictly closer to target than b, with ties
// broken towards the smaller identifier. This single comparator defines key
// ownership for the whole overlay.
func closerTo(target, a, b dht.ID) bool {
	da := dht.CircularDistance(a, target)
	db := dht.CircularDistance(b, target)
	switch da.Cmp(db) {
	case -1:
		return true
	case 1:
		return false
	default:
		return a.Cmp(b) < 0
	}
}

// node is one Pastry peer's routing state.
type node struct {
	*overlay.Node
	r *router

	mu     sync.Mutex
	leaves map[transport.NodeID]ref
	table  [][numCols]ref // numRows rows
}

// Routing messages.
type (
	pingReq     struct{}
	nextHopReq  struct{ Target dht.ID }
	nextHopResp struct {
		Done bool
		Next ref
	}
	getPeersReq  struct{}
	getPeersResp struct{ Peers []ref }
	announceReq  struct{ Peer ref }
	retireReq    struct{ Peer ref }
	// applyReq is the closure-carrying apply (overlay.Router.ApplyMsg).
	applyReq struct {
		Key dht.Key
		Fn  dht.ApplyFunc
	}
)

// Register every pastry routing message with the transport codec so
// overlays run unchanged over framed TCP. applyReq is deliberately absent:
// it carries a closure, which only an inline transport can deliver.
func init() {
	transport.RegisterType(pingReq{})
	transport.RegisterType(nextHopReq{})
	transport.RegisterType(nextHopResp{})
	transport.RegisterType(getPeersReq{})
	transport.RegisterType(getPeersResp{})
	transport.RegisterType(announceReq{})
	transport.RegisterType(retireReq{})
}

// router is Pastry's overlay.Router.
type router struct{ k *overlay.Overlay }

// NewNode implements overlay.Router.
func (r *router) NewNode(n *overlay.Node) overlay.NodeRouter {
	rt := &node{Node: n, r: r}
	rt.Reset()
	return rt
}

// ApplyMsg implements overlay.Router.
func (r *router) ApplyMsg(key dht.Key, fn dht.ApplyFunc) any { return applyReq{Key: key, Fn: fn} }

// Closer implements overlay.Router.
func (r *router) Closer(target, a, b dht.ID) bool { return closerTo(target, a, b) }

// Neighbours implements overlay.Router.
func (r *router) Neighbours(of ref, _ dht.ID) ([]ref, error) {
	return r.peersOf(of.Addr, of)
}

// peersOf reads a node's leaf set and routing table on behalf of from.
func (r *router) peersOf(from transport.NodeID, of ref) ([]ref, error) {
	peersAny, err := r.k.Net().Call(from, of.Addr, getPeersReq{})
	if err != nil {
		return nil, err
	}
	resp, ok := peersAny.(getPeersResp)
	if !ok {
		return nil, fmt.Errorf("pastry: peers of %q: bad response %T", of.Addr, peersAny)
	}
	return resp.Peers, nil
}

// Reset implements overlay.NodeRouter.
func (n *node) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaves = make(map[transport.NodeID]ref)
	n.table = make([][numCols]ref, numRows)
}

// HandleRPC implements overlay.NodeRouter.
func (n *node) HandleRPC(_ transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		return n.Ref(), nil
	case nextHopReq:
		return n.nextHop(r.Target), nil
	case getPeersReq:
		return getPeersResp{Peers: n.Neighbours(n.ID())}, nil
	case announceReq:
		n.integrate([]ref{r.Peer})
		return struct{}{}, nil
	case retireReq:
		n.forget(r.Peer)
		return struct{}{}, nil
	case applyReq:
		return n.Apply(r.Key, r.Fn)
	default:
		return nil, overlay.ErrUnknownRequest
	}
}

// nextHop answers one greedy routing step: the best-known peer strictly
// closer to target than this node, or Done when none is known.
func (n *node) nextHop(target dht.ID) nextHopResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := n.Ref()
	consider := func(c ref) {
		if !c.IsZero() && closerTo(target, c.ID, best.ID) {
			best = c
		}
	}
	for _, c := range n.leaves {
		consider(c)
	}
	for row := range n.table {
		for col := range n.table[row] {
			consider(n.table[row][col])
		}
	}
	if best.Addr == n.Addr() {
		return nextHopResp{Done: true, Next: best}
	}
	return nextHopResp{Next: best}
}

// Neighbours implements overlay.NodeRouter: the node's leaf set and
// routing-table entries. The peers nearest any key the node owns are in its
// leaf set, so ranking these by closerTo yields leaf-set placement.
func (n *node) Neighbours(dht.ID) []ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[transport.NodeID]ref, len(n.leaves))
	for a, c := range n.leaves {
		seen[a] = c
	}
	for row := range n.table {
		for _, c := range n.table[row] {
			if !c.IsZero() {
				seen[c.Addr] = c
			}
		}
	}
	out := make([]ref, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	// In identifier order, not map order: integrate gives a routing-table
	// slot to the first candidate that fits it, so the order peers are
	// learned in decides the table, and with it every route length.
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Cmp(out[j].ID) < 0 })
	return out
}

// Owns implements overlay.NodeRouter: no known live peer is closer to h.
// Runs after the stabilization round refreshed the leaf set, so the
// comparison is against live peers only.
func (n *node) Owns(h dht.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.leaves {
		if closerTo(h, p.ID, n.ID()) {
			return false
		}
	}
	return true
}

// integrate merges candidate peers into the leaf set and routing table.
func (n *node) integrate(cands []ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range cands {
		if c.IsZero() || c.Addr == n.Addr() {
			continue
		}
		n.leaves[c.Addr] = c
		row := n.ID().CommonPrefixDigits(c.ID, digitBits)
		if row >= numRows {
			continue
		}
		col := c.ID.Digit(row, digitBits)
		if n.table[row][col].IsZero() {
			n.table[row][col] = c
		}
	}
	n.trimLeavesLocked()
}

// forget removes a departed peer from all local state.
func (n *node) forget(peer ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.leaves, peer.Addr)
	for row := range n.table {
		for col := range n.table[row] {
			if n.table[row][col].Addr == peer.Addr {
				n.table[row][col] = ref{}
			}
		}
	}
}

// trimLeavesLocked keeps only the leafHalf nearest peers on each side of
// the ring. Callers hold n.mu.
func (n *node) trimLeavesLocked() {
	if len(n.leaves) <= 2*leafHalf {
		return
	}
	type distEnt struct {
		c  ref
		cw dht.ID // clockwise distance from n to c
	}
	ents := make([]distEnt, 0, len(n.leaves))
	for _, c := range n.leaves {
		ents = append(ents, distEnt{c: c, cw: c.ID.Sub(n.ID())})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].cw.Cmp(ents[j].cw) < 0 })
	keep := make(map[transport.NodeID]ref, 2*leafHalf)
	for i := 0; i < leafHalf && i < len(ents); i++ {
		keep[ents[i].c.Addr] = ents[i].c // clockwise side
	}
	for i := 0; i < leafHalf && i < len(ents); i++ {
		e := ents[len(ents)-1-i] // counter-clockwise side
		keep[e.c.Addr] = e.c
	}
	n.leaves = keep
}

// Join implements overlay.NodeRouter: route to the current owner of the
// node's identifier, seed local state from that node's view, announce, and
// claim keys.
func (n *node) Join(first bool) error {
	if first {
		return nil
	}
	k := n.r.k
	owner, err := k.Lookup(n.ID())
	if err != nil {
		return fmt.Errorf("pastry: join %q: %w", n.Addr(), err)
	}
	peers, err := n.r.peersOf(k.Client(), owner)
	if err != nil {
		return fmt.Errorf("pastry: join %q: fetch peers: %w", n.Addr(), err)
	}
	n.integrate(append(peers, owner))

	// Announce to everyone we now know, so they learn about us, and claim
	// the keys we own from each (ownership can move from any near peer). A
	// peer that cannot be reached is skipped: stabilization re-probes it.
	for _, p := range n.Neighbours(n.ID()) {
		if _, err := k.Net().Call(n.Addr(), p.Addr, announceReq{Peer: n.Ref()}); err != nil {
			continue
		}
		if err := k.Claim(n.Node, p); err != nil {
			k.NoteMaintenanceError(fmt.Errorf("pastry: join %q: %w", n.Addr(), err))
		}
	}
	return nil
}

// Unlink implements overlay.NodeRouter: every known peer is told to forget
// the node, so re-routes skip it. A peer that misses the notice keeps a
// dead routing entry until its next stabilization probe.
func (n *node) Unlink() {
	k := n.r.k
	for _, p := range n.Neighbours(n.ID()) {
		if _, err := k.Net().Call(n.Addr(), p.Addr, retireReq{Peer: n.Ref()}); err != nil {
			k.NoteMaintenanceError(fmt.Errorf("pastry: retire notice to %q from %q: %w", p.Addr, n.Addr(), err))
		}
	}
}

// Route implements overlay.Router: the kernel's route loop over Pastry's
// greedy step.
func (r *router) Route(entry ref, target dht.ID) (ref, error) {
	owner, _, err := r.k.Route(r, entry, target)
	return owner, err
}

// StepMsg implements overlay.Stepper.
func (r *router) StepMsg(target dht.ID) any { return nextHopReq{Target: target} }

// ReadStep implements overlay.Stepper: the node that answers Done owns
// target, and a next hop is strictly closer to it.
func (r *router) ReadStep(cur ref, target dht.ID, reply any) (bool, ref, error) {
	resp, ok := reply.(nextHopResp)
	switch {
	case !ok:
		return false, ref{}, fmt.Errorf("bad response %T", reply)
	case resp.Done:
		return true, cur, nil
	case !closerTo(target, resp.Next.ID, cur.ID):
		return false, ref{}, fmt.Errorf("non-monotone hop %q → %q", cur.Addr, resp.Next.Addr)
	}
	return false, resp.Next, nil
}

// Detour implements overlay.Stepper: at's step rerun over its live peers,
// the closest one strictly closer to target than at. It is never Done: at
// named the dead hop as closer, so at cannot own target.
func (r *router) Detour(at ref, target dht.ID, peers []ref) (bool, ref) {
	for _, p := range peers {
		if closerTo(target, p.ID, at.ID) {
			at = p
		}
	}
	return false, at
}

// Tick implements overlay.Router: Bamboo-style periodic repair. Every node
// probes its known peers, drops dead ones, merges the peer lists of live
// neighbours, and refills its routing table.
func (r *router) Tick() {
	for _, n := range r.k.LocalNodes() {
		r.stabilizeNode(n.Routing().(*node))
	}
}

func (r *router) stabilizeNode(n *node) {
	net, self := r.k.Net(), n.Ref()
	known := n.Neighbours(self.ID)
	live := make([]ref, 0, len(known))
	for _, p := range known {
		if _, err := net.Call(self.Addr, p.Addr, pingReq{}); err != nil {
			n.forget(p)
		} else {
			live = append(live, p)
		}
	}
	merged := append([]ref(nil), live...)
	for _, p := range live {
		if peers, err := r.peersOf(self.Addr, p); err == nil {
			merged = append(merged, peers...)
		}
	}
	// Verify second-hand peers are alive before adopting them.
	adopted := make([]ref, 0, len(merged))
	seen := make(map[transport.NodeID]bool, len(merged))
	for _, p := range merged {
		if p.Addr == self.Addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		if _, err := net.Call(self.Addr, p.Addr, pingReq{}); err == nil {
			adopted = append(adopted, p)
		}
	}
	n.integrate(adopted)
	// Announce ourselves to newly learned peers so links become symmetric.
	// A lost announce delays symmetry to a later round; count it so churn
	// outpacing repair is visible.
	for _, p := range adopted {
		if _, err := net.Call(self.Addr, p.Addr, announceReq{Peer: self}); err != nil {
			r.k.NoteMaintenanceError(fmt.Errorf("pastry: announce to %q from %q: %w", p.Addr, self.Addr, err))
		}
	}
}
