// End-of-test goroutine accounting for the connection machinery. A
// connection owns one goroutine, its read loop; frames are written by
// whoever has one to send (a caller, a handler's worker) under the
// connection's write mutex; and inbound calls run on workers that belong to
// the transport, are reused from call to call, and park on a channel in
// between. So the goroutines that can be left behind are a read loop whose
// connection nobody closed, a caller parked on a reply nobody will send, and
// a worker parked after the last call — and the Close/timeout races this
// file provokes are exactly the paths where a missed drain edge would park
// one forever. The static goroutineleak pass proves the channel topology
// has escape edges; these tests prove the runtime actually takes them.
package transport_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"mlight/internal/dht/dhttest"
	"mlight/internal/transport"
)

type leakEchoReq struct{ Msg string }

type leakBlockReq struct{}

func init() {
	transport.RegisterType(leakEchoReq{})
	transport.RegisterType(leakBlockReq{})
}

// gateHandler blocks leakBlockReq calls until released and echoes
// everything else, so a test can hold an RPC in flight across a timeout.
// Each blocked arrival is announced on started (buffered generously, so
// the handler never stalls on the announcement itself).
type gateHandler struct {
	release chan struct{}
	started chan struct{}
}

func newGateHandler() *gateHandler {
	return &gateHandler{release: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (h *gateHandler) HandleRPC(from transport.NodeID, req any) (any, error) {
	if _, ok := req.(leakBlockReq); ok {
		h.started <- struct{}{}
		<-h.release
		return leakEchoReq{Msg: "late"}, nil
	}
	return req, nil
}

// TestNoLeakAfterAbandonedCall pins the abandoned-RPC drain: a call times
// out, its reply arrives afterwards, and the connection must drop the
// orphaned response, keep multiplexing new calls, and leave zero
// goroutines behind after Close.
func TestNoLeakAfterAbandonedCall(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	server := transport.NewTCP(transport.TCPOptions{})
	t.Cleanup(func() {
		if err := server.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	client := transport.NewTCP(transport.TCPOptions{CallTimeout: 100 * time.Millisecond})
	t.Cleanup(func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	})
	h := newGateHandler()
	// Cleanups run LIFO: the gate opens before either transport closes, so
	// the parked handler can finish and the server can drain.
	t.Cleanup(func() { close(h.release) })

	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, h); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Call("caller", id, leakBlockReq{}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("blocked call err = %v, want timeout wrapping ErrUnreachable", err)
	}

	// The connection must still multiplex fresh calls while the abandoned
	// one is parked server-side, and must survive its late reply.
	resp, err := client.Call("caller", id, leakEchoReq{Msg: "after-timeout"})
	if err != nil {
		t.Fatalf("call after abandoned call: %v", err)
	}
	if resp.(leakEchoReq).Msg != "after-timeout" {
		t.Fatalf("resp = %#v", resp)
	}
}

// TestNoLeakAfterServerVanishes pins client-side teardown when the peer
// process dies mid-conversation: the raw listener below accepts one
// connection and slams it shut, so the client's read loop sees EOF and
// must unwind and drain the in-flight call with an error.
func TestNoLeakAfterServerVanishes(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close() //lint:allow droppederr slamming the socket shut is the fault being injected
		}
		close(accepted)
	}()
	t.Cleanup(func() {
		ln.Close() //lint:allow droppederr teardown of a listener the test body may already have closed
		<-accepted
	})

	client := transport.NewTCP(transport.TCPOptions{CallTimeout: 2 * time.Second})
	t.Cleanup(func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	})
	addr := transport.NodeID(ln.Addr().String())
	if _, err := client.Call("caller", addr, leakEchoReq{Msg: "doomed"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to vanishing server err = %v, want ErrUnreachable", err)
	}
	// The failed connection must be out of the pool: a retry dials afresh
	// (and fails to connect once the listener is gone) rather than reusing
	// the dead peer entry.
	ln.Close() //lint:allow droppederr closing early to kill the endpoint; cleanup handles the real teardown
	if _, err := client.Call("caller", addr, leakEchoReq{Msg: "retry"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("retry err = %v, want dial failure wrapping ErrUnreachable", err)
	}
}

// TestNoLeakCloseWithInFlightCalls pins the Close/in-flight race: calls
// parked awaiting replies when the client transport closes must all drain
// with an error, and no read loop may outlive Close.
func TestNoLeakCloseWithInFlightCalls(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	server := transport.NewTCP(transport.TCPOptions{})
	t.Cleanup(func() {
		if err := server.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	h := newGateHandler()
	t.Cleanup(func() { close(h.release) })
	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, h); err != nil {
		t.Fatal(err)
	}

	client := transport.NewTCP(transport.TCPOptions{CallTimeout: 30 * time.Second})
	const inFlight = 4
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := client.Call("caller", id, leakBlockReq{})
			errs <- err
		}()
	}
	// Wait until the handler holds all of them, then close underneath.
	for i := 0; i < inFlight; i++ {
		<-h.started
	}
	if err := client.Close(); err != nil {
		t.Fatalf("close with in-flight calls: %v", err)
	}
	for i := 0; i < inFlight; i++ {
		if err := <-errs; err == nil {
			t.Error("in-flight call returned nil error after Close")
		}
	}
}

// TestNoLeakCloseWithParkedWorkers pins the workers' lifetime: calls held
// in flight together force the server to start one worker each, all of them
// finish and park, and Close — with nothing in flight, so nothing but Close
// itself to wake them — must release and wait for every one.
func TestNoLeakCloseWithParkedWorkers(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	server := transport.NewTCP(transport.TCPOptions{})
	client := transport.NewTCP(transport.TCPOptions{})
	h := newGateHandler()
	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, h); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			_, err := client.Call("caller", id, leakBlockReq{})
			errs <- err
		}()
	}
	for i := 0; i < workers; i++ {
		<-h.started
	}
	close(h.release)
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("held call: %v", err)
		}
	}
	// A worker parks right after it has written its reply; one more round
	// trip is served by a parked worker (or starts a ninth, which parks too).
	if _, err := client.Call("caller", id, leakEchoReq{Msg: "reuse"}); err != nil {
		t.Fatalf("call after the held ones: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
}
