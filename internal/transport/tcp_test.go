package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoReq struct{ Msg string }
type echoResp struct {
	Msg  string
	From string
}

type failReq struct{ Transient bool }

func init() {
	RegisterType(echoReq{})
	RegisterType(echoResp{})
	RegisterType(failReq{})
}

type echoHandler struct {
	mu      sync.Mutex
	crashed bool
	calls   int
}

func (h *echoHandler) HandleRPC(from NodeID, req any) (any, error) {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	switch r := req.(type) {
	case echoReq:
		return echoResp{Msg: r.Msg, From: string(from)}, nil
	case failReq:
		if r.Transient {
			return nil, fmt.Errorf("busy: %w", ErrUnreachable)
		}
		return nil, errors.New("permanent rejection")
	default:
		return nil, fmt.Errorf("unknown request %T", req)
	}
}

func (h *echoHandler) OnCrash() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashed = true
}

func newTestTCP(t *testing.T) *TCP {
	t.Helper()
	tr := NewTCP(TCPOptions{CallTimeout: 5 * time.Second, DialTimeout: 2 * time.Second})
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return tr
}

func TestTCPBasicCall(t *testing.T) {
	tr := newTestTCP(t)
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call("client", id, echoReq{Msg: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.(echoResp)
	if !ok || got.Msg != "hello" || got.From != "client" {
		t.Fatalf("resp = %#v", resp)
	}
}

func TestTCPConnectionReuseAndConcurrency(t *testing.T) {
	tr := newTestTCP(t)
	h := &echoHandler{}
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, h); err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				msg := fmt.Sprintf("c%d-%d", c, i)
				resp, err := tr.Call("client", id, echoReq{Msg: msg})
				if err != nil {
					errs <- err
					return
				}
				if got := resp.(echoResp).Msg; got != msg {
					errs <- fmt.Errorf("echo %q != %q", got, msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tr.mu.Lock()
	conns := len(tr.peers)
	tr.mu.Unlock()
	if conns != 1 {
		t.Errorf("pooled connections = %d, want 1 (multiplexed reuse)", conns)
	}
}

// TestTCPWholeFramesUnderConcurrentWriters: 32 goroutines share one pooled
// connection and write their own frames, small ones and ones far larger than
// any buffer between them and the socket (64 KiB takes several write system
// calls). The write mutex must cover a whole frame in both directions, or
// bytes interleave and a checksum, a length or a reply goes wrong.
func TestTCPWholeFramesUnderConcurrentWriters(t *testing.T) {
	server := newTestTCP(t)
	client := newTestTCP(t)
	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 32, 200
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				size := 16
				if (c+i)%4 == 0 {
					size = 64 << 10
				}
				tag := fmt.Sprintf("%02d-%03d-", c, i)
				msg := tag + strings.Repeat(string(rune('a'+c%26)), size-len(tag))
				resp, err := client.Call("client", id, echoReq{Msg: msg})
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", c, i, err)
					return
				}
				if got := resp.(echoResp).Msg; got != msg {
					errs <- fmt.Errorf("caller %d call %d: reply of %d bytes starting %.10q, sent %d bytes starting %.10q", c, i, len(got), got, len(msg), msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	client.mu.Lock()
	conns := len(client.peers)
	client.mu.Unlock()
	if conns != 1 {
		t.Errorf("pooled connections = %d, want 1", conns)
	}
}

type nestedReq struct{ Msg string }

// callbackHandler answers a nestedReq by calling the caller's own node back
// and returning what it said — but only once `want` of them are running, so
// the test passes only if that many handlers really run at once.
type callbackHandler struct {
	tr      *TCP
	self    NodeID
	want    int32
	arrived atomic.Int32
	all     chan struct{}
}

func (h *callbackHandler) HandleRPC(from NodeID, req any) (any, error) {
	r, ok := req.(nestedReq)
	if !ok {
		return nil, fmt.Errorf("unknown request %T", req)
	}
	if h.arrived.Add(1) == h.want {
		close(h.all)
	}
	<-h.all
	return h.tr.Call(h.self, from, echoReq{Msg: r.Msg})
}

// TestTCPNestedCallsWhileManyInFlight: 64 calls are in flight at once and
// every handler makes a nested RPC back into the calling node before it
// answers. Reused workers must not serialise handlers: each call has its own
// worker while it runs, on both nodes.
func TestTCPNestedCallsWhileManyInFlight(t *testing.T) {
	RegisterType(nestedReq{})
	a := NewTCP(TCPOptions{CallTimeout: 20 * time.Second})
	b := NewTCP(TCPOptions{CallTimeout: 20 * time.Second})
	for _, tr := range []*TCP{a, b} {
		tr := tr
		t.Cleanup(func() {
			if err := tr.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
	aID, err := a.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Register(aID, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	bID, err := b.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	const inFlight = 64
	if err := b.Register(bID, &callbackHandler{tr: b, self: bID, want: inFlight, all: make(chan struct{})}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("nested-%d", i)
			resp, err := a.Call(aID, bID, nestedReq{Msg: msg})
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if got, ok := resp.(echoResp); !ok || got.Msg != msg || got.From != string(bID) {
				errs <- fmt.Errorf("call %d: resp = %#v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPErrorTransienceCrossesWire(t *testing.T) {
	tr := newTestTCP(t)
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}

	_, err = tr.Call("client", id, failReq{Transient: true})
	var tmp interface{ Temporary() bool }
	if err == nil || !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Errorf("transient handler error lost its classification: %v", err)
	}

	_, err = tr.Call("client", id, failReq{Transient: false})
	tmp = nil
	if err == nil {
		t.Error("permanent handler error vanished")
	} else if errors.As(err, &tmp) && tmp.Temporary() {
		t.Errorf("permanent handler error became transient: %v", err)
	}
}

func TestTCPUnreachablePeerIsTransient(t *testing.T) {
	tr := newTestTCP(t)
	// Grab a port that is then closed again, so nothing listens on it.
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	tr.Deregister(id)

	_, err = tr.Call("client", id, echoReq{Msg: "anyone?"})
	var tmp interface{ Temporary() bool }
	if err == nil || !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Errorf("dial failure should be transient, got %v", err)
	}
}

func TestTCPDownNodeSemantics(t *testing.T) {
	tr := newTestTCP(t)
	h := &echoHandler{}
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, h); err != nil {
		t.Fatal(err)
	}

	tr.SetDown(id, true)
	if !tr.IsDown(id) {
		t.Fatal("IsDown = false after SetDown(true)")
	}
	if _, err := tr.Call("client", id, echoReq{Msg: "x"}); err == nil {
		t.Error("call to a down node succeeded")
	}
	if _, err := tr.Call(id, "client", echoReq{Msg: "x"}); !errors.Is(err, ErrCallerDown) {
		t.Errorf("down caller err = %v, want ErrCallerDown", err)
	}

	tr.SetDown(id, false)
	if _, err := tr.Call("client", id, echoReq{Msg: "back"}); err != nil {
		t.Errorf("call after heal failed: %v", err)
	}
}

func TestTCPCrashRestartHooks(t *testing.T) {
	tr := newTestTCP(t)
	h := &echoHandler{}
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, h); err != nil {
		t.Fatal(err)
	}
	if err := tr.Crash(id); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	crashed := h.crashed
	h.mu.Unlock()
	if !crashed {
		t.Error("Crasher hook did not run")
	}
	if !tr.IsDown(id) {
		t.Error("crashed node not marked down")
	}
	if err := tr.Restart(id); err != nil {
		t.Fatal(err)
	}
	if tr.IsDown(id) {
		t.Error("restarted node still down")
	}
	if _, err := tr.Call("client", id, echoReq{Msg: "alive"}); err != nil {
		t.Errorf("call after restart: %v", err)
	}
}

func TestTCPRegisterEphemeralWithoutReserveFails(t *testing.T) {
	tr := newTestTCP(t)
	err := tr.Register("127.0.0.1:0", &echoHandler{})
	if err == nil {
		t.Fatal("Register with an unresolved ephemeral address succeeded; peers could never dial it")
	}
}

func TestTCPDuplicateRegister(t *testing.T) {
	tr := newTestTCP(t)
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, &echoHandler{}); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate register err = %v", err)
	}
}

func TestTCPCloseDrainsAndRejects(t *testing.T) {
	tr := NewTCP(TCPOptions{})
	id, err := tr.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call("client", id, echoReq{Msg: "pre-close"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call("client", id, echoReq{Msg: "post-close"}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close call err = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestTCPTwoProcessesStyleConversation(t *testing.T) {
	// Two transports in one test process stand in for two OS processes:
	// nothing is shared but the loopback sockets.
	server := newTestTCP(t)
	client := newTestTCP(t)

	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Call("dialer", id, echoReq{Msg: "cross-transport"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "cross-transport" {
		t.Fatalf("resp = %#v", resp)
	}
}

func TestTCPRedialAfterServerRestart(t *testing.T) {
	server := NewTCP(TCPOptions{})
	client := newTestTCP(t)

	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call("dialer", id, echoReq{Msg: "first"}); err != nil {
		t.Fatal(err)
	}

	// Server goes away: in-pool connection dies, further calls fail
	// transiently.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	//lint:allow determinism a real-socket outage window is paced by wall clock
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := client.Call("dialer", id, echoReq{Msg: "during outage"}); err != nil {
			break
		}
		//lint:allow determinism a real-socket outage window is paced by wall clock
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after server close")
		}
	}

	// Server comes back on the same address: the client's next call redials.
	server2 := NewTCP(TCPOptions{})
	defer func() {
		if err := server2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if _, err := server2.Listen(string(id)); err != nil {
		t.Fatalf("rebind %q: %v", id, err)
	}
	if err := server2.Register(id, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		if _, lastErr = client.Call("dialer", id, echoReq{Msg: "after restart"}); lastErr == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never reconnected: %v", lastErr)
}
