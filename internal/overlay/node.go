package overlay

import (
	"fmt"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// Journal receives every primary-store mutation of a node, in the critical
// section that applies it, before the RPC is acknowledged. A non-nil error
// fails the mutating RPC: a node that cannot journal must not accept
// writes. The daemon wires a dht.WAL-backed implementation here so a
// crashed process recovers its shard.
type Journal interface {
	Record(recs []dht.WALRecord) error
}

// Node is one peer: its identity, its share of the key space, and the
// routing state its protocol keeps for it.
type Node struct {
	addr transport.NodeID
	id   dht.ID
	o    *Overlay
	rt   NodeRouter

	mu    sync.Mutex
	store map[dht.Key]any
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
	// app is the application-level handler consulted for request types
	// neither the kernel nor the router recognises — the over-DHT
	// application layer (OpenDHT-style installed handlers).
	app transport.Handler
	// vers tracks per-key mutation versions for the remote (wire-safe)
	// apply protocol; every primary-store write bumps it. See dht.RemoteApply.
	vers dht.VersionedStore
	// journal, when set, records every primary-store mutation before it is
	// acknowledged — the daemon's WAL hook.
	journal Journal
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

// SetJournal installs the node's durability hook (nil disables).
func (n *Node) SetJournal(j Journal) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.journal = j
}

// SetAppHandler installs an application-level handler for requests the DHT
// layer does not recognise, the hook an over-DHT index uses to run its
// query logic on the peers themselves.
func (n *Node) SetAppHandler(h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.app = h
}

// OnCrash implements transport.Crasher: a hard crash destroys everything
// this process held in memory — stored keys, replicas, and all routing
// state. The address and identifier survive (they are identity, not state),
// as does the journal hook (the log is on disk), so the node can restart
// and rejoin as the same peer with empty buckets.
func (n *Node) OnCrash() {
	n.mu.Lock()
	n.store = make(map[dht.Key]any)
	n.replicas = nil
	n.replicaSeen = nil
	n.repRound = 0
	n.vers.Reset()
	n.mu.Unlock()
	n.rt.Reset()
}

// journalLocked records mutations in the WAL hook, if any. Callers hold
// n.mu; a failure means the mutation must not be applied.
func (n *Node) journalLocked(recs ...dht.WALRecord) error {
	if n.journal == nil || len(recs) == 0 {
		return nil
	}
	if err := n.journal.Record(recs); err != nil {
		return fmt.Errorf("overlay: %s: journal: %w", n.addr, err)
	}
	return nil
}

// putLocked is the primary-store write funnel: journal, install, bump the
// key's version. A primary supersedes any replica copy held of the same
// key. Callers hold n.mu.
func (n *Node) putLocked(key dht.Key, value any) error {
	if err := n.journalLocked(dht.WALRecord{Op: dht.WALPut, Key: key, Value: value}); err != nil {
		return err
	}
	n.store[key] = value
	n.vers.Bump(key)
	n.dropReplicaLocked(key)
	return nil
}

// removeLocked is the primary-store delete funnel. Callers hold n.mu.
func (n *Node) removeLocked(key dht.Key) error {
	if err := n.journalLocked(dht.WALRecord{Op: dht.WALRemove, Key: key}); err != nil {
		return err
	}
	delete(n.store, key)
	n.vers.Bump(key)
	n.dropReplicaLocked(key)
	return nil
}

func (n *Node) dropReplicaLocked(key dht.Key) {
	delete(n.replicas, key)
	delete(n.replicaSeen, key)
}

// currentLocked reads a key's value: the primary copy, or — in the crash
// window where routing already points here but promotion has not run yet —
// the replica copy. Callers hold n.mu.
func (n *Node) currentLocked(key dht.Key) (any, bool) {
	v, ok := n.store[key]
	if !ok {
		v, ok = n.replicas[key]
	}
	return v, ok
}

// absorbLocked merges a batch of entries into the primary store (handoffs,
// claims, promotions), journaling them as one group commit. When overwrite
// is false an existing entry wins (the offer semantics). Callers hold n.mu.
func (n *Node) absorbLocked(entries map[dht.Key]any, overwrite bool) error {
	recs := make([]dht.WALRecord, 0, len(entries))
	for k, v := range entries {
		if !overwrite {
			if _, exists := n.store[k]; exists {
				continue
			}
		}
		recs = append(recs, dht.WALRecord{Op: dht.WALPut, Key: k, Value: v})
	}
	if err := n.journalLocked(recs...); err != nil {
		return err
	}
	for _, rec := range recs {
		n.store[rec.Key] = rec.Value
		n.vers.Bump(rec.Key)
	}
	return nil
}

// absorb is absorbLocked for callers that do not hold n.mu.
func (n *Node) absorb(entries map[dht.Key]any, overwrite bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.absorbLocked(entries, overwrite)
}

// LocalGet reads a value from this node's own store (no network traffic) —
// what an application handler running on the peer sees.
func (n *Node) LocalGet(key dht.Key) (any, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentLocked(key)
}

// Apply runs fn on the key at this node — the handler behind a Router's
// ApplyMsg. A replica copy found in the crash window is the transform's
// input and is promoted by the write.
func (n *Node) Apply(key dht.Key, fn dht.ApplyFunc) (ApplyResp, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, ok := n.currentLocked(key)
	next, keep := fn(cur, ok)
	if keep {
		if err := n.putLocked(key, next); err != nil {
			return ApplyResp{}, err
		}
	} else if err := n.removeLocked(key); err != nil {
		return ApplyResp{}, err
	}
	return ApplyResp{Value: next, Keep: keep}, nil
}

// do runs op on the key at this node — the handler behind an opReq, and
// Apply's critical section with the one difference an op makes possible: a run
// that says it changed nothing leaves the store, the key's version and the
// journal as they were. A write goes through putLocked like every other, so
// it promotes a crash-window replica it took as input, and a concurrent
// closure-path CAS judged against the old version loses.
func (n *Node) do(r opReq) (opResp, error) {
	if r.Op == nil {
		return opResp{}, fmt.Errorf("overlay: %s: op request without an op", n.addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, ok := n.currentLocked(r.Key)
	next, write, result, err := r.Op.Run(cur, ok)
	if err != nil {
		return opResp{}, err
	}
	resp := opResp{Result: result, Wrote: write}
	if write {
		if err := n.putLocked(r.Key, next); err != nil {
			return opResp{}, err
		}
		if r.Echo {
			resp.Value = next
		}
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
// store message), store-plane messages here, anything else by the installed
// application handler.
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
		n.mu.Lock()
		defer n.mu.Unlock()
		if err := n.putLocked(r.Key, r.Value); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	case retrieveReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		v, ok := n.LocalGet(r.Key)
		return retrieveResp{Value: v, Found: ok}, nil
	case removeReq:
		if n.declines(r.Direct, r.Key) {
			return declinedResp{}, nil
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if err := n.removeLocked(r.Key); err != nil {
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
		n.mu.Lock()
		defer n.mu.Unlock()
		v, ok := n.store[r.Key]
		if !ok {
			// Promote a crash-window replica before snapshotting, exactly
			// as the inline apply path does: the version returned must name
			// the state the CAS will be judged against.
			if rv, rok := n.replicas[r.Key]; rok {
				if err := n.putLocked(r.Key, rv); err != nil {
					return nil, err
				}
				v, ok = rv, true
			}
		}
		return n.vers.Snapshot(r, v, ok), nil
	case dht.CASReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		cur, ok := n.store[r.Key]
		resp, apply := n.vers.CAS(r, cur, ok)
		if !apply {
			return resp, nil
		}
		// vers.CAS already bumped the version; only journal and install.
		if r.Keep {
			if err := n.journalLocked(dht.WALRecord{Op: dht.WALPut, Key: r.Key, Value: r.Value}); err != nil {
				return nil, err
			}
			n.store[r.Key] = r.Value
		} else {
			if err := n.journalLocked(dht.WALRecord{Op: dht.WALRemove, Key: r.Key}); err != nil {
				return nil, err
			}
			delete(n.store, r.Key)
			n.dropReplicaLocked(r.Key)
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
		defer n.mu.Unlock()
		n.dropReplicaLocked(r.Key)
		return struct{}{}, nil
	}
	n.mu.Lock()
	app := n.app
	n.mu.Unlock()
	if app != nil {
		return app.HandleRPC(from, req)
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
		items[i].Declined = n.declines(r.Direct, key)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, key := range r.Keys {
		if !items[i].Declined {
			items[i].Value, items[i].Found = n.currentLocked(key)
		}
	}
	return retrieveBatchResp{Items: items}, nil
}

// handleClaim hands over the keys a joining peer is now the better owner
// of. The departures are journaled as one group before anything is handed
// over: a node that cannot record losing ownership must keep serving the
// keys.
func (n *Node) handleClaim(joiner Ref) (claimResp, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[dht.Key]any)
	var recs []dht.WALRecord
	for k, v := range n.store {
		if n.o.router.Closer(dht.HashKey(k), joiner.ID, n.id) {
			out[k] = v
			recs = append(recs, dht.WALRecord{Op: dht.WALRemove, Key: k})
		}
	}
	if err := n.journalLocked(recs...); err != nil {
		return claimResp{}, err
	}
	for k := range out {
		delete(n.store, k)
		n.vers.Bump(k)
	}
	return claimResp{Entries: out}, nil
}

// StoreSnapshot copies the node's primary store. The daemon uses it as the
// WAL compaction source after a restart's replay.
func (n *Node) StoreSnapshot() map[dht.Key]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	return copyEntries(n.store)
}

// ReplicaSnapshot copies the replica entries the node holds for its
// neighbours' keys.
func (n *Node) ReplicaSnapshot() map[dht.Key]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	return copyEntries(n.replicas)
}

func copyEntries(m map[dht.Key]any) map[dht.Key]any {
	out := make(map[dht.Key]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// StoreLen returns how many primary entries the node currently stores.
func (n *Node) StoreLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.store)
}
