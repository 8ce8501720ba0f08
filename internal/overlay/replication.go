package overlay

import (
	"sort"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// Replication (an extension beyond the m-LIGHT paper, mirroring DHash,
// PAST/Bamboo and Kademlia's "store at the k closest"): with
// Config.Replication = r > 1, every key is stored at its primary owner and
// copied to the r-1 neighbours of the owner that rank next for the KEY
// under Router.Closer — the nodes that inherit ownership, in order, as
// closer holders crash. Placement follows the ownership comparator alone;
// an unreachable target simply misses the push and is repaired by the next
// round. (Diverting to a farther neighbour when a target fails a ping puts
// copies on nodes that can never inherit the key: after the owner crashes,
// routing converges on the best survivor, which then holds nothing.)
//
// Replicas live in a separate replica store so enumeration and ownership
// transfers (joins, claims) never confuse copies with primaries. Repair is
// periodic, in Bamboo style, once per Stabilize round:
//
//   - each node promotes replica entries it now owns (NodeRouter.Owns) into
//     its primary store;
//   - each node takes the replicas whose lease expired and offers them to
//     the key's current owner (relocateStaleReplicas);
//   - each node pushes its primary entries to each key's current targets,
//     which also renews the copies' leases.
//
// After up to r-1 simultaneous crashes and a couple of rounds, every
// surviving key is primary-owned at the correct node again, so index
// lookups keep working with no application involvement.

// handleReplicate stores pushed replica copies and stamps their lease: a
// push is the owner saying "you are still in this key's line of
// succession".
func (n *Node) handleReplicate(entries map[dht.Key]any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, v := range entries {
		n.shelveReplicaLocked(k, v)
	}
}

// shelveReplicaLocked stores one replica copy with a fresh lease. Callers
// hold n.mu.
func (n *Node) shelveReplicaLocked(k dht.Key, v any) {
	if n.replicas == nil {
		n.replicas = make(map[dht.Key]any)
		n.replicaSeen = make(map[dht.Key]uint64)
	}
	n.replicas[k] = v
	n.replicaSeen[k] = n.repRound
}

// replicaGraceRounds is how many repair rounds an unrefreshed replica
// survives before relocateStaleReplicas takes it as stale. One round of
// grace absorbs a transiently failed re-push (the retry budget already
// exhausted); two consecutive missed refreshes mean the owner no longer
// counts this node among the key's targets — ownership moved (a join, or
// a crashed node restarting and reclaiming its keyspace) — so keeping the
// copy would serve stale reads and resurrect deleted keys on promotion.
const replicaGraceRounds = 2

// takeExpiredReplicas removes and returns the replica entries whose lease
// ran out, and opens the next repair round. Runs once per stabilization
// round, before the re-push: a current target was refreshed by the previous
// round's push, so its lease reads zero here.
func (n *Node) takeExpiredReplicas() map[dht.Key]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out map[dht.Key]any
	for k, v := range n.replicas {
		if n.repRound-n.replicaSeen[k] >= replicaGraceRounds {
			if out == nil {
				out = make(map[dht.Key]any)
			}
			out[k] = v
			n.dropReplicaLocked(k)
		}
	}
	n.repRound++
	return out
}

// restoreReplica shelves an expired replica back with a fresh lease after a
// failed relocation, so the copy survives until routing can resolve its
// owner.
func (n *Node) restoreReplica(k dht.Key, v any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shelveReplicaLocked(k, v)
}

// relocateStaleReplicas resolves each lease-expired replica to the key's
// current owner and moves the copy there instead of destroying it. A stale
// lease usually means ownership moved and the owner already holds the key —
// then the offer is a no-op and the stale copy just disappears. But after
// an owner's crash the key's new owner may be a node that never held a copy
// (a joiner that slotted in between the dead primary and its replica set
// inherits the range with no data); destroying the expired replica there
// would lose the record's last copies, so the holder offers the entry to
// the resolved owner, which adopts it only if the key is absent. An offer
// can undo a delete that reached the owner while this copy, already
// displaced, was waiting out its lease; ruling that out (or healing
// partitions) would need per-record versions.
func (o *Overlay) relocateStaleReplicas(n *Node) {
	stale := n.takeExpiredReplicas()
	keys := make([]dht.Key, 0, len(stale))
	for k := range stale {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		owner, err := o.offer(n, k, stale[k])
		if err == nil && owner.Addr == n.addr {
			if err = n.absorb(map[dht.Key]any{k: stale[k]}, false); err != nil {
				o.NoteMaintenanceError(err)
			}
		}
		if err != nil {
			n.restoreReplica(k, stale[k])
		}
	}
}

// offer routes from n to the owner of key k and, unless that is n itself,
// offers it the entry (store-if-absent).
func (o *Overlay) offer(n *Node, k dht.Key, v any) (owner Ref, err error) {
	owner, err = o.router.Route(n.Ref(), dht.HashKey(k))
	if err == nil && owner.Addr != n.addr {
		_, err = o.net.Call(n.addr, owner.Addr, offerReq{Entries: map[dht.Key]any{k: v}})
	}
	return owner, err
}

// promoteOwnedReplicas moves the replica entries n now owns into its
// primary store — the ownership-transfer half of crash repair: after the
// owner of a key crashes, routing converges on the best survivor, which by
// the placement rule already holds the replica it promotes here. A failed
// journal write leaves the affected keys replicas, so the next round
// retries the promotion.
func (o *Overlay) promoteOwnedReplicas(n *Node) {
	n.mu.Lock()
	held := make([]dht.Key, 0, len(n.replicas))
	for k := range n.replicas {
		held = append(held, k)
	}
	n.mu.Unlock()
	owned := held[:0]
	for _, k := range held {
		if n.rt.Owns(dht.HashKey(k)) {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := make(map[dht.Key]any, len(owned))
	for _, k := range owned {
		if v, still := n.replicas[k]; still {
			entries[k] = v
		}
	}
	if err := n.absorbLocked(entries, false); err != nil {
		o.NoteMaintenanceError(err)
		return
	}
	for k := range entries {
		n.dropReplicaLocked(k)
	}
}

// replicaCall issues one replication RPC through the overlay's retry layer,
// keyed by the destination node (exact owner, no shard approximation
// needed). A call that still fails after the retry budget is counted in
// ReplicationErrors and recorded as the last replication error rather than
// silently dropped: the replica stays missing until the next stabilization
// round's reReplicate re-pushes it, and the counter makes that loss
// observable.
func (o *Overlay) replicaCall(from, to transport.NodeID, req any) {
	err := o.retrier.Do(string(to), func() error {
		_, e := o.net.Call(from, to, req)
		return e
	})
	if err != nil {
		o.noteReplicationError(err)
	}
}

func (o *Overlay) noteReplicationError(err error) {
	o.ReplicationErrors.Inc()
	o.mu.Lock()
	o.lastReplicaErr = err
	o.mu.Unlock()
}

// nearest returns the count best owners of hash h among cands, best first,
// skipping zero refs, self, and the addresses in gone. It runs once per key
// per repair round and once per write, on a node's neighbours — a handful to
// a few dozen refs, of which it keeps count ≤ a handful — so it selects into
// a short ranked buffer instead of sorting everything.
func (o *Overlay) nearest(cands []Ref, h dht.ID, count int, self transport.NodeID, gone map[transport.NodeID]bool) []Ref {
	out := make([]Ref, 0, count+1)
next:
	for _, c := range cands {
		if c.IsZero() || c.Addr == self || gone[c.Addr] {
			continue
		}
		at := len(out)
		for i, kept := range out {
			if kept.Addr == c.Addr {
				continue next
			}
			if at == len(out) && o.router.Closer(h, c.ID, kept.ID) {
				at = i
			}
		}
		if at == count {
			continue
		}
		out = append(out, Ref{})
		copy(out[at+1:], out[at:])
		out[at] = c
		out = out[:min(len(out), count)]
	}
	return out
}

// replicaTargets returns the key's line of succession behind owner: the
// Replication-1 neighbours of owner that rank next for hash h. A local
// owner is read directly; a remote one (client mode, or a daemon writing to
// a peer's shard) is asked.
func (o *Overlay) replicaTargets(owner Ref, h dht.ID) []Ref {
	if o.replication <= 1 {
		return nil
	}
	var cands []Ref
	if n, ok := o.NodeAt(owner.Addr); ok {
		cands = n.rt.Neighbours(h)
	} else {
		var err error
		if cands, err = o.router.Neighbours(owner, h); err != nil {
			o.noteReplicationError(err)
			return nil
		}
	}
	return o.nearest(cands, h, o.replication-1, owner.Addr, nil)
}

// replicate pushes the value for key (hash h) to the key's replica targets.
func (o *Overlay) replicate(owner Ref, h dht.ID, key dht.Key, value any) {
	for _, t := range o.replicaTargets(owner, h) {
		o.replicaCall(owner.Addr, t.Addr, replicateReq{Entries: map[dht.Key]any{key: value}})
	}
}

// dropReplicas removes the replicas of key (hash h) after a delete.
func (o *Overlay) dropReplicas(owner Ref, h dht.ID, key dht.Key) {
	for _, t := range o.replicaTargets(owner, h) {
		o.replicaCall(owner.Addr, t.Addr, dropReplicaReq{Key: key})
	}
}

// reReplicate pushes a node's primary entries to each key's current replica
// targets — the periodic repair of one stabilization round. Targets are per
// key, so entries are batched per destination before pushing.
//
// A primary the node does not own is a stray: a joiner's claim never
// reached this node, a write was routed here through a stale table, or a
// replica was promoted on a view that two neighbouring crashes had emptied.
// Left alone it shadows or duplicates the owner's copy, so it is re-homed
// instead of replicated.
func (o *Overlay) reReplicate(n *Node) {
	batches := make(map[transport.NodeID]map[dht.Key]any)
	for k, v := range n.StoreSnapshot() {
		h := dht.HashKey(k)
		if !n.rt.Owns(h) && o.rehome(n, k, v) {
			continue
		}
		if o.replication <= 1 {
			continue
		}
		for _, t := range o.nearest(n.rt.Neighbours(h), h, o.replication-1, n.addr, nil) {
			if batches[t.Addr] == nil {
				batches[t.Addr] = make(map[dht.Key]any)
			}
			batches[t.Addr][k] = v
		}
	}
	for dst, batch := range batches {
		o.replicaCall(n.addr, dst, replicateReq{Entries: batch})
	}
}

// rehome offers a stray primary to the key's routed owner and, once the
// owner has answered, drops it here. It reports whether the entry moved; a
// failed lookup or offer leaves it in place for the next round.
func (o *Overlay) rehome(n *Node, k dht.Key, v any) bool {
	if owner, err := o.offer(n, k, v); err != nil || owner.Addr == n.addr {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.removeLocked(k); err != nil {
		o.NoteMaintenanceError(err)
		return false
	}
	return true
}
