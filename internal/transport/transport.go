// Package transport defines the RPC boundary every DHT overlay in this
// repository speaks: synchronous request/response calls between named
// peers, handler registration, and the fault-injection hooks (down marks,
// crashes, restarts) the churn machinery drives.
//
// The interface is extracted from internal/simnet, whose Network was the
// implicit contract the overlays were written against. simnet remains one
// implementation — the deterministic in-process simulator — and this
// package adds TCP (tcp.go): length-prefixed framed envelopes over real
// sockets, so a cluster of OS processes can serve the same overlays. The
// overlay packages (chord, pastry, kademlia) take a transport.Interface and
// run unchanged over either.
//
// The two implementations differ in one observable capability: simnet
// delivers requests *inline* (the remote handler runs on the caller's
// goroutine in the same address space), so values that cannot cross a
// process boundary — dht.ApplyFunc closures — work. Real transports cannot
// do that; callers probe with SupportsInline and send the transform as data
// where it has that form (dht.Op), or fall back to a wire-safe protocol (see
// dht.RemoteApply).
package transport

import (
	"errors"
	"time"
)

// NodeID identifies a peer. For the simulated network it is an arbitrary
// label; for TCP it is the peer's dialable listen address ("host:port"), so
// a ref learned from any overlay message is directly reachable and no
// separate address book is needed.
type NodeID string

// Handler processes one inbound RPC on a peer. Implementations must be safe
// for concurrent use if the transport is driven from multiple goroutines.
type Handler interface {
	HandleRPC(from NodeID, req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, req any) (any, error)

// HandleRPC implements Handler.
func (f HandlerFunc) HandleRPC(from NodeID, req any) (any, error) { return f(from, req) }

// Crasher is implemented by handlers whose node holds volatile state that a
// hard crash destroys. Crash invokes OnCrash after marking the node down,
// so the handler wipes memory-resident buckets, routing tables, and
// replicas exactly as a process kill would. Durable state (a write-ahead
// log, a snapshot file) must survive OnCrash.
type Crasher interface {
	OnCrash()
}

// Restarter is implemented by handlers that rebuild volatile state when the
// process comes back: Restart invokes OnRestart after clearing the down
// mark, so recovery (log replay, rejoin) runs before any peer traffic can
// observe the node.
type Restarter interface {
	OnRestart()
}

// Interface is the message fabric the overlays are written against.
//
// Call performs a synchronous RPC and must be safe for concurrent use. A
// failed delivery (peer down, link lost, connection refused) is reported
// with an error that declares itself transient via the net.Error
// Temporary() convention, so retry layers (dht.DefaultClassify) recognise
// it without importing the transport.
//
// Register/Deregister manage the local request handlers; SetDown, Crash,
// Restart, and IsDown are the fault-injection and lifecycle hooks (a real
// transport implements them for its local nodes only — it cannot partition
// a remote process). OneWayLatency exposes the modeled one-way delay so
// application layers can account critical-path time; transports without a
// latency model return zero.
type Interface interface {
	Call(from, to NodeID, req any) (any, error)
	Register(id NodeID, h Handler) error
	Deregister(id NodeID)
	SetDown(id NodeID, down bool)
	Crash(id NodeID) error
	Restart(id NodeID) error
	IsDown(id NodeID) bool
	OneWayLatency(from, to NodeID) time.Duration
}

// InlineCaller is the capability marker for transports that deliver a
// request to the remote handler within the caller's address space, so
// non-serialisable values (closures) survive the trip. simnet implements
// it; TCP does not.
type InlineCaller interface {
	InlineDelivery() bool
}

// SupportsInline reports whether t delivers requests inline (same address
// space). Overlay code uses it to choose between the closure-carrying apply
// path and what a socket can carry: the op message, or the compare-and-swap
// protocol.
func SupportsInline(t Interface) bool {
	ic, ok := t.(InlineCaller)
	return ok && ic.InlineDelivery()
}

// temporaryError declares itself transient via the net.Error Temporary()
// convention, mirroring simnet's failure sentinels.
type temporaryError struct{ msg string }

func (e *temporaryError) Error() string   { return e.msg }
func (e *temporaryError) Temporary() bool { return true }

var (
	// ErrUnreachable is returned when the destination peer cannot be
	// reached: nothing listens at its address, the connection died, or the
	// call timed out. It is Temporary(): the peer may recover, so retry
	// layers treat it as transient.
	ErrUnreachable error = &temporaryError{"transport: peer unreachable"}
	// ErrCallerDown is returned when the *calling* node is marked down. It
	// is deliberately not Temporary() — retrying from a crashed node cannot
	// succeed until that node itself recovers.
	ErrCallerDown = errors.New("transport: calling peer is down")
	// ErrDuplicateNode is returned when registering an already registered
	// node identifier.
	ErrDuplicateNode = errors.New("transport: node already registered")
	// ErrClosed is returned by operations on a transport after Close.
	ErrClosed = errors.New("transport: closed")
)
