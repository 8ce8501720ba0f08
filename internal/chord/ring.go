package chord

import (
	"fmt"
	"slices"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// maxHops bounds one iterative lookup.
const maxHops = 512

// Ring is the overlay kernel running Chord routing.
type Ring = overlay.Overlay

// Config tunes a Ring. Replication is capped at SuccessorListLen+1.
type Config = overlay.Config

// NewRing creates an empty ring on net.
func NewRing(net transport.Interface, cfg Config) *Ring {
	return overlay.New(net, cfg, "chord", SuccessorListLen+1, func(k *overlay.Overlay) overlay.Router {
		return &router{k: k}
	})
}

// router is Chord's overlay.Router.
type router struct{ k *overlay.Overlay }

// NewNode implements overlay.Router.
func (r *router) NewNode(n *overlay.Node) overlay.NodeRouter { return &node{Node: n, r: r} }

// ApplyMsg implements overlay.Router.
func (r *router) ApplyMsg(key dht.Key, fn dht.ApplyFunc) any { return applyReq{Key: key, Fn: fn} }

// Closer implements overlay.Router: a key belongs to the first node at or
// after its hash, so the better owner is the one a shorter clockwise walk
// from the target reaches.
func (r *router) Closer(target, a, b dht.ID) bool {
	return a.Sub(target).Cmp(b.Sub(target)) < 0
}

// Neighbours implements overlay.Router.
func (r *router) Neighbours(of ref, _ dht.ID) ([]ref, error) {
	return r.succsOf(of.Addr, of)
}

// succsOf reads a node's successor list on behalf of from.
func (r *router) succsOf(from transport.NodeID, of ref) ([]ref, error) {
	succsAny, err := r.k.Net().Call(from, of.Addr, getSuccsReq{})
	if err != nil {
		return nil, err
	}
	succs, ok := succsAny.([]ref)
	if !ok {
		return nil, fmt.Errorf("chord: successors of %q: bad response %T", of.Addr, succsAny)
	}
	return succs, nil
}

// Route implements overlay.Router: one iterative route from cur towards
// target.
func (r *router) Route(cur ref, target dht.ID) (ref, error) {
	owner, _, err := r.route(cur, target)
	return owner, err
}

// route is Route that also returns the node whose step answered: the
// owner's predecessor as that node sees the ring.
func (r *router) route(cur ref, target dht.ID) (owner, answered ref, err error) {
	net, client := r.k.Net(), r.k.Client()
	prev := ref{}
	for hop := 0; hop < maxHops; hop++ {
		respAny, err := net.Call(client, cur.Addr, lookupStepReq{Target: target})
		r.k.Hops.Inc()
		if err != nil {
			return ref{}, ref{}, fmt.Errorf("chord: step via %q: %w", cur.Addr, err)
		}
		resp, ok := respAny.(lookupStepResp)
		if !ok {
			return ref{}, ref{}, fmt.Errorf("chord: step via %q: bad response %T", cur.Addr, respAny)
		}
		if resp.Done {
			// Verify the answer is alive; a dead successor means stale
			// state that a retry (after stabilization) can fix.
			if _, err := net.Call(client, resp.Next.Addr, pingReq{}); err != nil {
				return ref{}, ref{}, fmt.Errorf("chord: successor %q dead: %w", resp.Next.Addr, err)
			}
			return resp.Next, cur, nil
		}
		if resp.Next.Addr == cur.Addr || resp.Next.Addr == prev.Addr {
			// No progress; the ring is inconsistent here.
			return ref{}, ref{}, fmt.Errorf("chord: lookup stalled at %q", cur.Addr)
		}
		prev, cur = cur, resp.Next
	}
	return ref{}, ref{}, fmt.Errorf("chord: exceeded %d hops", maxHops)
}

// Join implements overlay.NodeRouter. Joining eagerly links
// predecessor/successor pointers and claims the keys in (oldPred, n] from
// the successor, so lookups are correct before the next stabilization
// round; the finger table is built right away.
func (n *node) Join(first bool) error {
	if first {
		n.mu.Lock()
		n.succs = []ref{n.Ref()}
		n.pred = n.Ref()
		n.mu.Unlock()
	} else if err := n.link(); err != nil {
		return fmt.Errorf("chord: join %q: %w", n.Addr(), err)
	}
	n.r.fixFingers(n)
	return nil
}

func (n *node) link() error {
	k := n.r.k
	net, client, self := k.Net(), k.Client(), n.Ref()
	succ, err := k.Lookup(n.ID())
	if err != nil {
		return err
	}
	if succ.Addr == self.Addr {
		// A restart that beat stabilization: a peer still lists the crashed
		// incarnation, so the ring routes our identifier back to us.
		return n.relink()
	}
	oldPredAny, err := net.Call(client, succ.Addr, getPredReq{})
	if err != nil {
		return fmt.Errorf("read predecessor: %w", err)
	}
	oldPred, _ := oldPredAny.(ref)
	succList, err := n.r.succsOf(client, succ)
	if err != nil {
		return fmt.Errorf("read successors: %w", err)
	}

	n.mu.Lock()
	n.pred = oldPred
	n.succs = truncateSuccs(append([]ref{succ}, succList...))
	n.mu.Unlock()

	if err := k.Claim(n.Node, succ); err != nil {
		return err
	}
	if _, err := net.Call(client, succ.Addr, setPredReq{Pred: self}); err != nil {
		return fmt.Errorf("link successor: %w", err)
	}
	// In a two-node ring the successor is also the predecessor.
	if !oldPred.IsZero() {
		if _, err := net.Call(client, oldPred.Addr, setSuccReq{Succ: self}); err != nil {
			return fmt.Errorf("link predecessor: %w", err)
		}
	}
	return nil
}

// relink joins a node the ring still routes to from its crashed
// incarnation. The peer whose step answered our identifier lists us as its
// successor, so it is our predecessor, and our successors are the ones it
// lists after us (the peer itself when it lists nobody else). Both already
// point at us, so nothing is sent to them; the keys are claimed from the
// successor as on any join.
func (n *node) relink() error {
	k, self := n.r.k, n.Ref()
	entry, err := k.Entry()
	if err != nil {
		return err
	}
	owner, pred, err := n.r.route(entry, self.ID)
	if err != nil {
		return err
	}
	if owner.Addr != self.Addr {
		return fmt.Errorf("route to own identifier answered %q on a second try", owner.Addr)
	}
	list, err := n.r.succsOf(k.Client(), pred)
	if err != nil {
		return fmt.Errorf("read successors: %w", err)
	}
	var succs []ref
	if i := slices.IndexFunc(list, func(s ref) bool { return s.Addr == self.Addr }); i >= 0 {
		succs = list[i+1:]
	}
	if len(succs) == 0 {
		succs = []ref{pred}
	}
	n.mu.Lock()
	n.pred = pred
	n.succs = truncateSuccs(succs)
	n.mu.Unlock()
	return k.Claim(n.Node, succs[0])
}

// Unlink implements overlay.NodeRouter: the predecessor and successor are
// pointed at each other.
func (n *node) Unlink() {
	n.mu.Lock()
	pred := n.pred
	var succ ref
	if len(n.succs) > 0 {
		succ = n.succs[0]
	}
	n.mu.Unlock()
	self, k := n.Addr(), n.r.k
	if pred.IsZero() || succ.IsZero() || pred.Addr == self || succ.Addr == self {
		return
	}
	if _, err := k.Net().Call(self, pred.Addr, setSuccReq{Succ: succ}); err != nil {
		k.NoteMaintenanceError(fmt.Errorf("chord: leave %q: relink predecessor: %w", self, err))
	}
	if _, err := k.Net().Call(self, succ.Addr, setPredReq{Pred: pred}); err != nil {
		k.NoteMaintenanceError(fmt.Errorf("chord: leave %q: relink successor: %w", self, err))
	}
}

func truncateSuccs(s []ref) []ref {
	if len(s) > SuccessorListLen {
		s = s[:SuccessorListLen]
	}
	return s
}

// Tick implements overlay.Router: Chord's stabilize+notify on every node,
// then a refresh of every finger table.
func (r *router) Tick() {
	nodes := r.k.LocalNodes()
	for _, n := range nodes {
		r.stabilizeNode(n.Routing().(*node))
	}
	for _, n := range nodes {
		r.fixFingers(n.Routing().(*node))
	}
}

// stabilizeNode is Chord's periodic stabilize on one node.
func (r *router) stabilizeNode(n *node) {
	net, self := r.k.Net(), n.Ref()
	n.mu.Lock()
	succs := append([]ref(nil), n.succs...)
	n.mu.Unlock()

	// Find the first live successor.
	var succ ref
	for _, s := range succs {
		if s.Addr == self.Addr {
			succ = s
			break
		}
		if _, err := net.Call(self.Addr, s.Addr, pingReq{}); err == nil {
			succ = s
			break
		}
	}
	if succ.IsZero() {
		// All successors dead; fall back to any live managed node.
		if entry, err := r.k.Entry(); err == nil {
			succ = entry
		} else {
			succ = self
		}
	}

	if succ.Addr != self.Addr {
		if predAny, err := net.Call(self.Addr, succ.Addr, getPredReq{}); err == nil {
			if x, ok := predAny.(ref); ok && !x.IsZero() && x.Addr != self.Addr &&
				x.ID.BetweenOpen(self.ID, succ.ID) {
				if _, err := net.Call(self.Addr, x.Addr, pingReq{}); err == nil {
					succ = x
				}
			}
		}
	}

	// Adopt the successor and rebuild the successor list through it,
	// verifying liveness so dead entries do not propagate between lists.
	newSuccs := []ref{succ}
	if succ.Addr != self.Addr {
		if list, err := r.succsOf(self.Addr, succ); err == nil {
			for _, s := range list {
				if s.Addr == self.Addr || s.IsZero() {
					continue
				}
				if _, err := net.Call(self.Addr, s.Addr, pingReq{}); err != nil {
					continue
				}
				newSuccs = append(newSuccs, s)
			}
		}
	}
	n.mu.Lock()
	n.succs = truncateSuccs(newSuccs)
	// Clear a dead predecessor so notify can replace it.
	pred := n.pred
	n.mu.Unlock()
	if !pred.IsZero() && pred.Addr != self.Addr {
		if _, err := net.Call(self.Addr, pred.Addr, pingReq{}); err != nil {
			n.mu.Lock()
			n.pred = ref{}
			n.mu.Unlock()
		}
	}
	if succ.Addr != self.Addr {
		if _, err := net.Call(self.Addr, succ.Addr, notifyReq{Candidate: self}); err != nil {
			r.k.NoteMaintenanceError(fmt.Errorf("chord: notify %q from %q: %w", succ.Addr, self.Addr, err))
		}
	}
}

// fixFingers rebuilds every finger of n, finger i being the owner of
// n.id + 2^i. As in Chord's init_finger_table, a start that lies in
// (n, finger[i-1]] is answered by finger i-1 without a route: the finger
// owns everything from the previous start up to itself, and a finger equal
// to n (Between's a == b, the full ring) covers every later start. Only the
// other starts are routed, about one per distinct finger (≈ log₂ N + 1 of
// the 160). A finger whose route fails (through a dead peer) is cleared
// rather than kept stale, and the next finger is then routed rather than
// copied, so lookups degrade to correct successor-walking until the next
// round repairs it.
func (r *router) fixFingers(n *node) {
	self := n.Ref()
	var prev ref
	for i := 0; i < dht.IDBits; i++ {
		start := self.ID.AddPowerOfTwo(i)
		found := prev
		if prev.IsZero() || !start.Between(self.ID, prev.ID) {
			var err error
			if found, err = r.Route(self, start); err != nil {
				found = ref{}
			}
		}
		n.mu.Lock()
		n.fingers[i] = found
		n.mu.Unlock()
		prev = found
	}
}
