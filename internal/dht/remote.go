package dht

import (
	"errors"
	"fmt"

	"mlight/internal/transport"
)

// Remote apply protocol. ApplyFunc is a closure, and closures only survive
// an RPC when the transport delivers requests inline (simnet). Over a real
// transport the overlays fall back to this per-key versioned
// compare-and-swap: read the value with its version, run the transform
// client-side, and install the result only if the version is unchanged —
// retrying from the returned state on contention.
//
// It is no longer what an index write costs: every write of m-LIGHT, PHT and
// DST, root bootstraps included, is an Op (op.go), which a socket-backed
// overlay executes at the owner. What still comes here is tests, DoApply's
// fallback (a substrate that is not a Doer; under wire.ByteDHT, an op with no
// byte form, such as a dialed client's root bootstrap) and the benchmark
// harness's traced stack, whose wrappers forward Apply alone. The harness also
// compiles against CASReq by name (its transport probe marshals one), so the
// protocol and VersionedStore stay until the harness is rewritten (ROADMAP
// item 5's second PR); an op and a CAS on one key still serialise, because an
// op's write bumps the same version a CAS is judged against. The owning node
// serialises CAS decisions under its store lock, so concurrent Apply callers
// never lose an update (the atomicity the conformance suite pins), at the cost
// of re-running transforms under contention.
//
// Every mutation of a key at its owner bumps the key's version (see
// VersionedStore), so a CAS raced by *any* write — another CAS, a Put, a
// handoff — observes the conflict and retries. The protocol assumes the
// key's owner stays put for the duration of one Apply, the same assumption
// the inline path's single owner-resolution already makes; ownership moves
// mid-apply are healed by the overlay's usual replication repair.

// Wire message types of the remote apply protocol, registered with the
// transport codec here so every substrate shares one vocabulary.
type (
	// GetVerReq asks the key's owner for the current value and version.
	// Direct marks a request sent to a node the caller only believes to be
	// the owner: an overlay node serves it if it owns the key and declines
	// otherwise (internal/overlay, view.go).
	GetVerReq struct {
		Key    Key
		Direct bool
	}
	// GetVerResp is the owner's snapshot of the key.
	GetVerResp struct {
		Value any
		Found bool
		Ver   uint64
	}
	// CASReq installs Value (or deletes, when Keep is false) only if the
	// key's version still equals Ver.
	CASReq struct {
		Key   Key
		Ver   uint64
		Value any
		Keep  bool
	}
	// CASResp reports the outcome; on conflict (OK false) it carries the
	// current state so the caller retries without another round trip. On
	// success only the new version comes back: the caller holds the value it
	// sent.
	CASResp struct {
		OK    bool
		Value any
		Found bool
		Ver   uint64
	}
)

func init() {
	transport.RegisterType(GetVerReq{})
	transport.RegisterType(GetVerResp{})
	transport.RegisterType(CASReq{})
	transport.RegisterType(CASResp{})
}

// ErrApplyContention is returned when a remote apply loses its CAS race
// more times than the retry bound allows. It is retryable: contention is
// transient by nature.
var ErrApplyContention = Retryable(errors.New("dht: remote apply: persistent contention"))

// remoteApplyAttempts bounds one RemoteApply's CAS retries. Each retry
// means another writer won the race, so under any finite contention the
// loop terminates; the bound only guards against livelock bugs.
const remoteApplyAttempts = 256

// RemoteApply runs fn against the key's owner through call (a closure over
// the transport's Call) using the versioned CAS protocol. The opening
// GetVerReq is where call may still be finding the owner; every CASReq must
// then reach the node that answered it, whose version the CAS is judged
// against. It returns the post-apply value and whether it was kept —
// the same contract the inline applyResp carries — so overlay replication
// can fan the result out.
func RemoteApply(call func(req any) (any, error), key Key, fn ApplyFunc) (value any, keep bool, err error) {
	respAny, err := call(GetVerReq{Key: key})
	if err != nil {
		return nil, false, err
	}
	snap, ok := respAny.(GetVerResp)
	if !ok {
		return nil, false, fmt.Errorf("dht: remote apply: bad version response %T", respAny)
	}
	for attempt := 0; attempt < remoteApplyAttempts; attempt++ {
		next, keep := fn(snap.Value, snap.Found)
		casAny, err := call(CASReq{Key: key, Ver: snap.Ver, Value: next, Keep: keep})
		if err != nil {
			return nil, false, err
		}
		cas, ok := casAny.(CASResp)
		if !ok {
			return nil, false, fmt.Errorf("dht: remote apply: bad cas response %T", casAny)
		}
		if cas.OK {
			return next, keep, nil
		}
		snap = GetVerResp{Value: cas.Value, Found: cas.Found, Ver: cas.Ver}
	}
	return nil, false, fmt.Errorf("%w: key %q", ErrApplyContention, key)
}

// VersionedStore is the owner-side half of the protocol: a per-key version
// counter an overlay node keeps beside its primary store. The zero value is
// ready to use. It is not self-locking, and the version must move in the same
// critical section as the value: the owning node reads and bumps it only
// inside the writes it runs under its store's lock.
type VersionedStore struct {
	vers map[Key]uint64
}

// Bump records a mutation of key. Call it (under the store lock) from every
// path that writes the primary store: user-facing stores and removes,
// handoffs, claims, and replica promotions.
func (vs *VersionedStore) Bump(key Key) {
	if vs.vers == nil {
		vs.vers = make(map[Key]uint64)
	}
	vs.vers[key]++
}

// Reset drops all versions — the crash-wipe companion to clearing the
// store. Versions restart from zero under the same identity; a client
// holding a pre-crash version cannot falsely succeed, because losing the
// store also discarded the entry its CAS would have matched.
func (vs *VersionedStore) Reset() { vs.vers = nil }

// Snapshot answers a GetVerReq against the given store state. Callers hold
// the store lock and pass the key's current value.
func (vs *VersionedStore) Snapshot(r GetVerReq, value any, found bool) GetVerResp {
	return GetVerResp{Value: value, Found: found, Ver: vs.vers[r.Key]}
}

// CAS decides a CASReq against the given current state, returning the
// response and whether the swap succeeds. Callers hold the store lock and,
// on success, apply the mutation r names — keep r.Value, or delete the key —
// which bumps the version as every write does.
func (vs *VersionedStore) CAS(r CASReq, curValue any, curFound bool) (resp CASResp, apply bool) {
	if ver := vs.vers[r.Key]; ver != r.Ver {
		return CASResp{OK: false, Value: curValue, Found: curFound, Ver: ver}, false
	}
	return CASResp{OK: true, Found: r.Keep, Ver: r.Ver + 1}, true
}
