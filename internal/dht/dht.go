// Package dht defines the generic put/get/lookup interface that the m-LIGHT
// paper assumes of its substrate ("they share a generic put/get/lookup
// interface", §1), the 160-bit identifier space shared by the overlays, a
// fast single-process implementation, and a counting decorator that meters
// DHT operations for the experiments.
//
// Everything above this interface — m-LIGHT itself and the PHT and DST
// baselines — is substrate-agnostic: it runs without modification over the
// in-process store (Local, in memory or under a WAL), over the Chord,
// Pastry/Bamboo-style and Kademlia overlays the kernel in internal/overlay
// hosts on a simulated network, and over mlightd daemons on TCP
// (internal/daemon), hosted or dialed as a client.
package dht

import "errors"

// Key is an application-level DHT key. Keys are hashed (SHA-1, as in
// Chord/Bamboo) onto the identifier ring; the peer whose region covers the
// hash stores the value.
type Key string

// ApplyFunc transforms the value stored under a key, executing at the
// owning peer. cur is the current value (nil if absent, with exists=false);
// the returned next value replaces it, or the entry is removed when
// keep=false. Callers capture any outputs in the closure — by assigning them
// whole on every run: a substrate may run the function more than once for one
// Apply (RemoteApply after a lost CAS, Resilient after a failed attempt) and
// stores only what the last run returned. A closure cannot cross a socket; a
// transform that has to is written as an Op (op.go).
type ApplyFunc func(cur any, exists bool) (next any, keep bool)

// DHT is the substrate interface. Implementations must be safe for
// concurrent use.
//
// Each method is one logical DHT operation — the unit in which the paper
// measures maintenance and query bandwidth (it contains a DHT-lookup to
// locate the owner, plus the value transfer).
type DHT interface {
	// Put stores value under key, replacing any existing value.
	Put(key Key, value any) error
	// Get returns the value stored under key; found is false when absent.
	Get(key Key) (value any, found bool, err error)
	// Remove deletes key. Removing an absent key is not an error.
	Remove(key Key) error
	// Apply atomically transforms the value under key at the owning peer.
	// This models the application-level handlers that over-DHT indexes
	// install on peers (e.g. "append this record to your bucket"), so the
	// full value does not cross the network — which holds wherever the
	// closure can reach the peer: in process and on an inline transport. Over
	// a socket it cannot, and an arbitrary fn falls back to reading the
	// value, transforming it at the caller and writing it back under a
	// version check (RemoteApply). No index calls it: every index write is
	// an Op sent through Do (op.go), and what still reaches Apply is tests,
	// DoApply's fallback and the benchmark harness's traced stack.
	Apply(key Key, fn ApplyFunc) error
	// Owner returns the identifier of the peer currently responsible for
	// key, for load-distribution measurements. An overlay answers from its
	// routing state, which may still name a peer that has died.
	Owner(key Key) (string, error)
}

// Enumerator is an optional interface for substrates that can walk their
// stored entries — available on all in-process implementations and used by
// the load-balance experiments.
type Enumerator interface {
	// Range calls fn for every stored (key, value) pair until fn returns
	// false. The iteration order is unspecified.
	Range(fn func(key Key, value any) bool) error
}

// ErrNoPeers is returned by operations on a DHT with no live peers.
var ErrNoPeers = errors.New("dht: no live peers")
