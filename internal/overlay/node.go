package overlay

import (
	"fmt"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// Node is one peer: its identity, its share of the key space, and the
// routing state its protocol keeps for it.
type Node struct {
	addr transport.NodeID
	id   dht.ID
	o    *Overlay
	rt   NodeRouter

	// store is the node's primary store, a dht.Local of one shard: every
	// primary write is one call on it (Node.writeAll), run under its lock and,
	// once the daemon has attached a WAL (AttachWAL), journaled before it
	// is acknowledged.
	store *dht.Local

	// mu guards the replica copies, their leases and vers.
	// A write takes it inside the store's lock, never the other way round.
	mu sync.Mutex
	// replicas holds copies of other nodes' keys when the overlay runs with
	// Replication > 1; see replication.go.
	replicas map[dht.Key]any
	// replicaSeen records the local repair round at which each replica was
	// last refreshed by its owner; repRound counts completed repair rounds.
	// Together they implement the replica lease: a copy whose owner stops
	// refreshing it (ownership moved — a join, or a restart reclaiming the
	// keyspace) expires instead of lingering stale. See takeExpiredReplicas.
	replicaSeen map[dht.Key]uint64
	repRound    uint64
	// vers tracks per-key mutation versions for the remote (wire-safe)
	// apply protocol; every primary-store write bumps it, under the store
	// lock. See dht.RemoteApply.
	vers dht.VersionedStore
}

// Store-plane messages. What each one does is the same for every protocol,
// so the kernel owns them; routing messages stay with their overlay.
//
// Direct marks a request a client-mode overlay sent without routing first
// (view.go; dht.GetVerReq carries the same mark): the receiver serves it only
// if it owns the key and otherwise answers declinedResp.
type (
	storeReq struct {
		Key    dht.Key
		Value  any
		Direct bool
	}
	retrieveReq struct {
		Key    dht.Key
		Direct bool
	}
	retrieveResp struct {
		Value any
		Found bool
	}
	removeReq struct {
		Key    dht.Key
		Direct bool
	}
	// retrieveBatchReq reads several keys at one node in one frame: what a
	// client-mode overlay sends for the keys of a GetBatch that one view
	// member ranks best for (batch.go). The receiver checks ownership per
	// key, so Items[i] answers Keys[i] as a retrieveReq for it would have
	// been answered: the value, or Declined.
	retrieveBatchReq struct {
		Keys   []dht.Key
		Direct bool
	}
	retrieveBatchResp struct{ Items []retrieveItem }
	retrieveItem      struct {
		Value    any
		Found    bool
		Declined bool
	}
	// opReq executes Op on Key at its owner, under the store lock (Node.do):
	// the transform as data, which a socket can carry where it cannot carry
	// the closure of a Router's ApplyMsg. Echo asks for the stored value back
	// — set by an overlay that replicates what it wrote, never by a dialed
	// client.
	opReq struct {
		Key    dht.Key
		Op     dht.Op
		Direct bool
		Echo   bool
	}
	// opResp is the op's result, and whether it wrote: Value is the stored
	// value after a write the request asked to have echoed.
	opResp struct {
		Result any
		Wrote  bool
		Value  any
	}
	// ApplyResp answers a Router's ApplyMsg: the post-apply value and
	// whether the key was kept.
	ApplyResp struct {
		Value any
		Keep  bool
	}
	// handoffReq transfers keys from a gracefully leaving node. It is
	// authoritative and overwrites.
	handoffReq struct{ Entries map[dht.Key]any }
	// offerReq hands a possibly-orphaned entry to the key's current owner.
	// Unlike handoffReq it is speculative: the receiver keeps its own value
	// if it already has one and only adopts the entry when the key is absent.
	offerReq struct{ Entries map[dht.Key]any }
	// claimReq asks a node to hand over the keys the joiner is now the
	// better owner of (Router.Closer).
	claimReq  struct{ Joiner Ref }
	claimResp struct{ Entries map[dht.Key]any }
	// replicateReq pushes replica copies to a neighbour of the owner.
	replicateReq struct{ Entries map[dht.Key]any }
	// dropReplicaReq removes a replica after a key is deleted.
	dropReplicaReq struct{ Key dht.Key }
)

// Register every kernel message with the transport codec so overlays run
// unchanged over framed TCP. A Router's ApplyMsg is deliberately absent: it
// carries a closure, which only an inline transport can deliver — over the
// wire a transform that is a dht.Op travels as an opReq (its type registered
// by the package that defines it), and any other Apply uses the dht
// versioned-CAS protocol instead.
func init() {
	transport.RegisterType(Ref{})
	transport.RegisterType([]Ref(nil))
	transport.RegisterType(storeReq{})
	transport.RegisterType(retrieveReq{})
	transport.RegisterType(retrieveResp{})
	transport.RegisterType(removeReq{})
	transport.RegisterType(retrieveBatchReq{})
	transport.RegisterType(retrieveBatchResp{})
	transport.RegisterType(declinedResp{})
	transport.RegisterType(opReq{})
	transport.RegisterType(opResp{})
	transport.RegisterType(ApplyResp{})
	transport.RegisterType(handoffReq{})
	transport.RegisterType(offerReq{})
	transport.RegisterType(claimReq{})
	transport.RegisterType(claimResp{})
	transport.RegisterType(replicateReq{})
	transport.RegisterType(dropReplicaReq{})
}

// Addr returns the node's network address.
func (n *Node) Addr() transport.NodeID { return n.addr }

// ID returns the node's identifier.
func (n *Node) ID() dht.ID { return n.id }

// Ref returns the node's own Ref.
func (n *Node) Ref() Ref { return Ref{Addr: n.addr, ID: n.id} }

// Routing returns the node's routing state, for its Router.
func (n *Node) Routing() NodeRouter { return n.rt }

// AttachWAL makes the node's primary store durable (dht.Local.AttachWAL); a
// node that cannot journal a write fails it.
func (n *Node) AttachWAL(w *dht.WAL) error { return n.store.AttachWAL(w) }

// OnCrash implements transport.Crasher: a hard crash destroys everything
// this process held in memory — stored keys, replicas, and all routing
// state. The address and identifier survive (they are identity, not state),
// as does the store's WAL (the log is on disk), so the node can restart and
// rejoin as the same peer with empty buckets.
func (n *Node) OnCrash() {
	n.store.CrashVolatile()
	n.mu.Lock()
	n.replicas = nil
	n.replicaSeen = nil
	n.repRound = 0
	n.vers.Reset()
	n.mu.Unlock()
	n.rt.Reset()
}

// writeAll runs fn on each of keys (distinct) under the store lock — every
// primary write of the node is one call of it, and a call's writes are one
// group commit. fn sees what the store holds and returns what store.Update
// takes. A key written has its version bumped in the same critical section.
// Once the call has landed, the replica copy of every key written, or held
// as a primary already, is dropped: a primary supersedes it. A failed
// journal write leaves the store, and the replicas, as they were.
func (n *Node) writeAll(keys []dht.Key, fn func(i int, cur any, exists bool) (next any, keep, write bool)) error {
	var done []dht.Key
	err := n.store.Update(keys, func(i int, cur any, ok bool) (any, bool, bool) {
		next, keep, write := fn(i, cur, ok)
		if write {
			n.mu.Lock()
			n.vers.Bump(keys[i])
			n.mu.Unlock()
		}
		if write || ok {
			done = append(done, keys[i])
		}
		return next, keep, write
	})
	if err != nil {
		return fmt.Errorf("overlay: %s: journal: %w", n.addr, err)
	}
	if len(done) > 0 {
		n.mu.Lock()
		for _, k := range done {
			n.dropReplicaLocked(k)
		}
		n.mu.Unlock()
	}
	return nil
}

// write is writeAll on one key, with fn taking the key's current value: what
// the store holds or — in the crash window where routing already points here
// but promotion has not run yet — the replica copy, which a write promotes.
func (n *Node) write(key dht.Key, fn func(cur any, exists bool) (next any, keep, write bool)) error {
	return n.writeAll([]dht.Key{key}, func(_ int, cur any, ok bool) (any, bool, bool) {
		if !ok {
			cur, ok = n.replica(key)
		}
		return fn(cur, ok)
	})
}

// remove deletes key.
func (n *Node) remove(key dht.Key) error {
	return n.write(key, func(any, bool) (any, bool, bool) { return nil, false, true })
}

func (n *Node) dropReplicaLocked(key dht.Key) {
	delete(n.replicas, key)
	delete(n.replicaSeen, key)
}

// replica returns the node's replica copy of key.
func (n *Node) replica(key dht.Key) (any, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.replicas[key]
	return v, ok
}

// absorb merges a batch of entries into the primary store (handoffs, claims,
// offers) as one group commit. When overwrite is false an existing entry
// wins (the offer semantics).
func (n *Node) absorb(entries map[dht.Key]any, overwrite bool) error {
	keys := make([]dht.Key, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	return n.writeAll(keys, func(i int, _ any, ok bool) (any, bool, bool) {
		return entries[keys[i]], true, overwrite || !ok
	})
}

// localGet reads a value from this node's own store (no network traffic) —
// what a retrieveReq is answered with: the primary copy, or in the crash
// window the replica copy. A write lands a promoted copy in the store before
// it drops the replica, so a key missed in both is read from the store once
// more before it is reported absent.
func (n *Node) localGet(key dht.Key) (any, bool) {
	//lint:allow droppederr a Local's Get cannot fail
	if v, ok, _ := n.store.Get(key); ok {
		return v, true
	}
	if v, ok := n.replica(key); ok {
		return v, true
	}
	//lint:allow droppederr a Local's Get cannot fail
	v, ok, _ := n.store.Get(key)
	return v, ok
}

// Apply runs fn on the key at this node — the handler behind a Router's
// ApplyMsg. A replica copy found in the crash window is the transform's
// input and is promoted by the write.
func (n *Node) Apply(key dht.Key, fn dht.ApplyFunc) (ApplyResp, error) {
	var resp ApplyResp
	err := n.write(key, func(cur any, ok bool) (any, bool, bool) {
		resp.Value, resp.Keep = fn(cur, ok)
		return resp.Value, resp.Keep, true
	})
	if err != nil {
		return ApplyResp{}, err
	}
	return resp, nil
}

// do runs op on the key at this node — the handler behind an opReq, and
// Apply's write with the one difference an op makes possible: a run that says
// it changed nothing leaves the store, the key's version and the journal as
// they were. A write promotes a crash-window replica it took as input, and
// bumps the version, so a concurrent closure-path CAS judged against the old
// version loses.
func (n *Node) do(r opReq) (opResp, error) {
	if r.Op == nil {
		return opResp{}, fmt.Errorf("overlay: %s: op request without an op", n.addr)
	}
	var resp opResp
	var opErr error
	err := n.write(r.Key, func(cur any, ok bool) (any, bool, bool) {
		next, write, result, err := r.Op.Run(cur, ok)
		resp, opErr = opResp{Result: result, Wrote: write && err == nil}, err
		if resp.Wrote && r.Echo {
			resp.Value = next
		}
		return next, true, resp.Wrote
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return opResp{}, err
	}
	return resp, nil
}

// declines reports whether a request must be refused: it was sent direct, on
// the sender's guess, and by this node's routing state somebody else owns the
// key. A routed request is served as it always was — routing resolved this
// node, and in the crash window that is deliberately a replica holder.
func (n *Node) declines(direct bool, key dht.Key) bool {
	return direct && !n.rt.Owns(dht.HashKey(key))
}

// HandleRPC implements transport.Handler: routing messages are served by
// the node's NodeRouter (asked first — a lookup is several of them for every
// store message), store-plane messages here; anything else is an error. No
// arm defers: a deferred call in any of them would keep the compiler from
// open-coding the function's defers, and every routing step would pay the
// runtime's deferred-call path on its way out.
func (n *Node) HandleRPC(from transport.NodeID, req any) (any, error) {
	// The sentinel comes back bare, by NodeRouter's contract.
	if resp, err := n.rt.HandleRPC(from, req); err != ErrUnknownRequest {
		return resp, err
	}
	switch r := req.(type) {
	case storeReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		if err := n.write(r.Key, func(any, bool) (any, bool, bool) { return r.Value, true, true }); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	case retrieveReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		v, ok := n.localGet(r.Key)
		return retrieveResp{Value: v, Found: ok}, nil
	case removeReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		if err := n.remove(r.Key); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	case retrieveBatchReq:
		return n.retrieveBatch(r)
	case opReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		return n.do(r)
	case dht.GetVerReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		// The value and version name one state; in the crash window the
		// value is the replica copy, which the CAS that follows promotes.
		var resp dht.GetVerResp
		err := n.write(r.Key, func(cur any, ok bool) (any, bool, bool) {
			n.mu.Lock()
			defer n.mu.Unlock()
			resp = n.vers.Snapshot(r, cur, ok)
			return nil, false, false
		})
		return resp, err
	case dht.CASReq:
		var resp dht.CASResp
		err := n.write(r.Key, func(cur any, ok bool) (any, bool, bool) {
			n.mu.Lock()
			defer n.mu.Unlock()
			var apply bool
			resp, apply = n.vers.CAS(r, cur, ok)
			return r.Value, r.Keep, apply
		})
		if err != nil {
			return nil, err
		}
		return resp, nil
	case handoffReq:
		if err := n.absorb(r.Entries, true); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	case offerReq:
		if err := n.absorb(r.Entries, false); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	case claimReq:
		return n.handleClaim(r.Joiner)
	case replicateReq:
		n.handleReplicate(r.Entries)
		return struct{}{}, nil
	case dropReplicaReq:
		n.mu.Lock()
		n.dropReplicaLocked(r.Key)
		n.mu.Unlock()
		return struct{}{}, nil
	}
	return nil, fmt.Errorf("overlay: %s: unknown request type %T", n.addr, req)
}

// retrieveBatch answers every key of a batch as a retrieveReq for it would be
// answered, ownership check included. The key count is checked before the
// reply is sized: no client of this package sends more than maxBatchKeys.
func (n *Node) retrieveBatch(r retrieveBatchReq) (any, error) {
	if len(r.Keys) > maxBatchKeys {
		return nil, fmt.Errorf("overlay: %s: batch of %d keys exceeds the %d a frame may carry", n.addr, len(r.Keys), maxBatchKeys)
	}
	items := make([]retrieveItem, len(r.Keys))
	for i, key := range r.Keys {
		if items[i].Declined = n.declines(r.Direct, key); !items[i].Declined {
			items[i].Value, items[i].Found = n.localGet(key)
		}
	}
	return retrieveBatchResp{Items: items}, nil
}

// handleClaim hands over the keys a joining peer is now the better owner
// of. The departures are journaled as one group before anything is handed
// over: a node that cannot record losing ownership must keep serving the
// keys.
func (n *Node) handleClaim(joiner Ref) (claimResp, error) {
	var keys []dht.Key
	n.store.Range(func(k dht.Key, _ any) bool {
		if n.o.router.Closer(dht.HashKey(k), joiner.ID, n.id) {
			keys = append(keys, k)
		}
		return true
	})
	out := make(map[dht.Key]any, len(keys))
	err := n.writeAll(keys, func(i int, cur any, ok bool) (any, bool, bool) {
		if ok {
			out[keys[i]] = cur
		}
		return nil, false, ok
	})
	if err != nil {
		return claimResp{}, err
	}
	return claimResp{Entries: out}, nil
}

// StoreSnapshot copies the node's primary store.
func (n *Node) StoreSnapshot() map[dht.Key]any {
	out := make(map[dht.Key]any, n.store.Len())
	n.store.Range(func(k dht.Key, v any) bool {
		out[k] = v
		return true
	})
	return out
}

// ReplicaSnapshot copies the replica entries the node holds for its
// neighbours' keys.
func (n *Node) ReplicaSnapshot() map[dht.Key]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[dht.Key]any, len(n.replicas))
	for k, v := range n.replicas {
		out[k] = v
	}
	return out
}

// StoreLen returns how many primary entries the node currently stores.
func (n *Node) StoreLen() int { return n.store.Len() }
