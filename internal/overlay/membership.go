package overlay

import (
	"fmt"
	"sort"
	"time"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// spawn creates an unjoined node registered on the network.
func (o *Overlay) spawn(addr transport.NodeID) (*Node, error) {
	n := &Node{addr: addr, id: dht.HashString(string(addr)), o: o, store: dht.NewPeerStore()}
	n.rt = o.router.NewNode(n)
	if err := o.net.Register(addr, n); err != nil {
		return nil, fmt.Errorf("overlay: register %q: %w", addr, err)
	}
	return n, nil
}

// join wires n into the overlay. An overlay with remote seeds is never
// "empty": its first local node joins the overlay the seeds belong to
// instead of forming a singleton.
func (o *Overlay) join(n *Node) error {
	o.mu.Lock()
	first := len(o.nodes) == 0 && len(o.seeds) == 0
	o.mu.Unlock()
	return n.rt.Join(first)
}

// admit adds joined nodes to the live membership.
func (o *Overlay) admit(nodes ...*Node) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range nodes {
		o.nodes[n.addr] = n
		o.order = append(o.order, n.addr)
	}
	sort.Slice(o.order, func(i, j int) bool { return o.order[i] < o.order[j] })
	o.resetViewLocked()
}

// AddNode creates a node at addr and joins it to the overlay. The first
// node forms a singleton. Joining claims the keys the new node now owns, so
// the overlay is immediately consistent; routing tables are refreshed
// lazily by Stabilize.
func (o *Overlay) AddNode(addr transport.NodeID) (*Node, error) {
	if _, dup := o.NodeAt(addr); dup {
		return nil, fmt.Errorf("overlay: node %q already in overlay", addr)
	}
	n, err := o.spawn(addr)
	if err != nil {
		return nil, err
	}
	if err := o.join(n); err != nil {
		o.net.Deregister(addr)
		return nil, err
	}
	o.admit(n)
	return n, nil
}

// AddNodes builds a complete overlay from scratch in one pass, for
// protocols that can wire a known membership directly instead of joining
// node by node: every address is registered, wire installs all routing
// state at once, and the nodes are admitted together. The overlay must be
// empty (no nodes, no remote seeds) and the addresses distinct. On error no
// node stays registered on the transport.
func (o *Overlay) AddNodes(addrs []transport.NodeID, wire func([]*Node)) ([]*Node, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("overlay: bulk build needs at least one address")
	}
	o.mu.Lock()
	empty := len(o.nodes) == 0 && len(o.crashed) == 0 && len(o.seeds) == 0
	o.mu.Unlock()
	if !empty {
		return nil, fmt.Errorf("overlay: bulk build requires an empty overlay")
	}
	nodes := make([]*Node, 0, len(addrs))
	fail := func(err error) ([]*Node, error) {
		for _, n := range nodes {
			o.net.Deregister(n.addr)
		}
		return nil, err
	}
	seen := make(map[transport.NodeID]bool, len(addrs))
	for _, addr := range addrs {
		if seen[addr] {
			return fail(fmt.Errorf("overlay: bulk build: duplicate address %q", addr))
		}
		seen[addr] = true
		n, err := o.spawn(addr)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, n)
	}
	wire(nodes)
	o.admit(nodes...)
	return nodes, nil
}

// Claim asks the node at from for the keys n, a joiner, now owns, and
// installs them at n. Routers call it from Join for every neighbour
// ownership can move from.
func (o *Overlay) Claim(n *Node, from Ref) error {
	respAny, err := o.net.Call(n.addr, from.Addr, claimReq{Joiner: n.Ref()})
	if err != nil {
		return fmt.Errorf("claim keys from %q: %w", from.Addr, err)
	}
	resp, ok := respAny.(claimResp)
	if !ok {
		return fmt.Errorf("claim keys from %q: bad response %T", from.Addr, respAny)
	}
	if err := n.absorb(resp.Entries, true); err != nil {
		return fmt.Errorf("absorb keys claimed from %q: %w", from.Addr, err)
	}
	return nil
}

// RemoveNode gracefully departs a node. The leave policy is the same for
// every protocol: each key is handed to the neighbour that ranks next for
// it (falling back to the one after when a handoff fails — that neighbour
// is then the key's owner anyway), the node's neighbours are told it is
// leaving, and the call returns an error naming how many keys could not be
// handed to anyone. Only a true singleton — no other local node, no seeds,
// no neighbours — departs silently.
func (o *Overlay) RemoveNode(addr transport.NodeID) error {
	o.mu.Lock()
	n, ok := o.nodes[addr]
	if ok {
		delete(o.nodes, addr)
		o.order = removeAddr(o.order, addr)
		o.resetViewLocked()
	}
	alone := len(o.nodes) == 0 && len(o.seeds) == 0
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("overlay: node %q not in overlay", addr)
	}
	defer o.net.Deregister(addr)

	if alone && len(n.rt.Neighbours(n.id)) == 0 {
		return nil
	}
	entries := n.StoreSnapshot()
	total := len(entries)
	lost := 0
	gone := make(map[transport.NodeID]bool)
	for len(entries) > 0 {
		batches := make(map[transport.NodeID]map[dht.Key]any)
		for k, v := range entries {
			h := dht.HashKey(k)
			heir := o.nearest(n.rt.Neighbours(h), h, 1, addr, gone)
			if len(heir) == 0 {
				lost++
				delete(entries, k)
				continue
			}
			if batches[heir[0].Addr] == nil {
				batches[heir[0].Addr] = make(map[dht.Key]any)
			}
			batches[heir[0].Addr][k] = v
		}
		for dst, batch := range batches {
			if _, err := o.net.Call(addr, dst, handoffReq{Entries: batch}); err != nil {
				gone[dst] = true
				continue
			}
			for k := range batch {
				delete(entries, k)
			}
		}
	}
	n.rt.Unlink()
	if lost > 0 {
		err := fmt.Errorf("overlay: leave %q: %d of %d keys not handed off: no reachable neighbour", addr, lost, total)
		o.NoteMaintenanceError(err)
		return err
	}
	return nil
}

// CrashNode fails a node abruptly: it stops answering and its volatile
// state — stored keys, replicas, routing tables — is destroyed (transport
// Crash → Node.OnCrash), not merely hidden behind a partition.
// Stabilization repairs the overlay around it; RestartNode can later revive
// the same identity with empty buckets.
func (o *Overlay) CrashNode(addr transport.NodeID) error {
	o.mu.Lock()
	n, ok := o.nodes[addr]
	if ok {
		delete(o.nodes, addr)
		o.order = removeAddr(o.order, addr)
		o.crashed[addr] = n
		o.resetViewLocked()
	}
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("overlay: node %q not in overlay", addr)
	}
	return o.net.Crash(addr)
}

// RestartNode revives a crashed node under its old identity: the network
// registration comes back up, the node rejoins (claiming back the keys it
// owns), and the replication retrier forgets the peer's past failures so
// its circuit breaker does not shed traffic to a now-healthy node. With
// every other node down and no seeds it comes back as a fresh singleton.
func (o *Overlay) RestartNode(addr transport.NodeID) (*Node, error) {
	o.mu.Lock()
	n, ok := o.crashed[addr]
	delete(o.crashed, addr)
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("overlay: node %q is not crashed", addr)
	}
	err := o.net.Restart(addr)
	if err == nil {
		if err = o.join(n); err != nil {
			// Rejoin failed (e.g. every entry point unreachable): put the
			// node back down so a later restart attempt starts from a
			// clean slate.
			o.net.SetDown(addr, true)
		}
	}
	if err != nil {
		o.mu.Lock()
		o.crashed[addr] = n
		o.mu.Unlock()
		return nil, err
	}
	o.admit(n)
	o.retrier.ResetOwner(string(addr))
	return n, nil
}

// CrashedNodes returns the addresses of crashed, restartable nodes in
// sorted order — the churn scheduler's restart candidates.
func (o *Overlay) CrashedNodes() []transport.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]transport.NodeID, 0, len(o.crashed))
	for addr := range o.crashed {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func removeAddr(order []transport.NodeID, addr transport.NodeID) []transport.NodeID {
	out := order[:0]
	for _, a := range order {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

// Stabilize runs the given number of maintenance rounds over the local
// nodes. A round is the Router's Tick (routing repair) followed by the
// kernel's data repair, each step over every node before the next begins:
// promote the replicas a node now owns; relocate the replicas whose lease
// expired to their key's current owner; re-push every primary to its
// current replica targets. Leases are checked before the re-push, against
// the previous round's refresh, so that an entry relocation has just saved
// is replicated from its new owner in the same round rather than sitting
// there as a single copy until the next. Two rounds after a churn event are
// enough to restore routing and placement in the simulations used here.
func (o *Overlay) Stabilize(rounds int) {
	for i := 0; i < rounds; i++ {
		o.router.Tick()
		nodes := o.LocalNodes()
		for _, n := range nodes {
			o.promoteOwnedReplicas(n)
		}
		for _, n := range nodes {
			o.relocateStaleReplicas(n)
		}
		for _, n := range nodes {
			o.reReplicate(n)
		}
	}
}

// AutoStabilizer runs Stabilize on a fixed cadence in a managed background
// goroutine: the daemon's maintenance loop. Simulations and tests should
// call Stabilize explicitly for determinism.
type AutoStabilizer struct {
	stop chan struct{}
	done chan struct{}
}

// StartAutoStabilize launches the background stabilizer. Call Shutdown to
// stop it and wait for exit.
func (o *Overlay) StartAutoStabilize(interval time.Duration) *AutoStabilizer {
	a := &AutoStabilizer{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				o.Stabilize(1)
			case <-a.stop:
				return
			}
		}
	}()
	return a
}

// Shutdown stops the stabilizer and waits for its goroutine to exit.
func (a *AutoStabilizer) Shutdown() {
	close(a.stop)
	<-a.done
}
