package simnet

import (
	"errors"
	"testing"
	"time"
)

func echoHandler() Handler {
	return HandlerFunc(func(from NodeID, req any) (any, error) {
		return req, nil
	})
}

func TestRegisterAndCall(t *testing.T) {
	n := New(Options{})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call("a", "b", "ping")
	if err != nil || resp != "ping" {
		t.Fatalf("Call = %v, %v", resp, err)
	}
	if got := n.RPCs.Load(); got != 1 {
		t.Errorf("RPCs = %d, want 1", got)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := New(Options{})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", echoHandler()); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate Register = %v, want ErrDuplicateNode", err)
	}
	if err := n.Register("x", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestSelfCallUncounted(t *testing.T) {
	n := New(Options{})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", "a", 1); err != nil {
		t.Fatal(err)
	}
	if got := n.RPCs.Load(); got != 0 {
		t.Errorf("self-call counted as RPC: %d", got)
	}
}

func TestUnreachable(t *testing.T) {
	n := New(Options{})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", "ghost", 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Call to unknown = %v, want ErrUnreachable", err)
	}

	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	n.SetDown("b", true)
	if !n.IsDown("b") {
		t.Error("IsDown(b) = false after SetDown")
	}
	if _, err := n.Call("a", "b", 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Call to down node = %v, want ErrUnreachable", err)
	}
	n.SetDown("b", false)
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Errorf("Call after recovery = %v", err)
	}

	n.Deregister("b")
	if _, err := n.Call("a", "b", 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Call after Deregister = %v, want ErrUnreachable", err)
	}
}

func TestDownCallerCannotSend(t *testing.T) {
	n := New(Options{})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	n.SetDown("a", true)
	if _, err := n.Call("a", "b", 1); !errors.Is(err, ErrCallerDown) {
		t.Errorf("down caller Call = %v, want ErrCallerDown", err)
	}
	// The failed origination never reached the network: no RPC was counted
	// and the drop generator was not consulted.
	if got := n.RPCs.Load(); got != 0 {
		t.Errorf("down caller counted as RPC traffic: RPCs = %d, want 0", got)
	}
	n.SetDown("a", false)
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Errorf("Call after caller recovery = %v", err)
	}
	if got := n.RPCs.Load(); got != 1 {
		t.Errorf("RPCs after recovery = %d, want 1", got)
	}
}

// TestErrorTaxonomy pins the retry-layer contract: unreachable/dropped
// failures declare themselves Temporary(), while a down caller does not.
func TestErrorTaxonomy(t *testing.T) {
	var tmp interface{ Temporary() bool }
	if !errors.As(ErrUnreachable, &tmp) || !tmp.Temporary() {
		t.Error("ErrUnreachable is not Temporary()")
	}
	if errors.As(ErrCallerDown, &tmp) && tmp.Temporary() {
		t.Error("ErrCallerDown must not be Temporary()")
	}
}

func TestSetDropRate(t *testing.T) {
	n := New(Options{Seed: 7})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Fatalf("lossless Call = %v", err)
	}
	n.SetDropRate(1.0)
	if _, err := n.Call("a", "b", 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Call at drop rate 1.0 = %v, want ErrUnreachable", err)
	}
	n.SetDropRate(0)
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Errorf("Call after SetDropRate(0) = %v", err)
	}
}

func TestDropRate(t *testing.T) {
	n := New(Options{DropRate: 1.0, Seed: 1})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.Call("a", "b", i); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("lossy Call %d = %v, want ErrUnreachable", i, err)
		}
	}
	if got := n.Dropped.Load(); got != 10 {
		t.Errorf("Dropped = %d, want 10", got)
	}
	// Self-calls are never dropped.
	if _, err := n.Call("a", "a", 0); err != nil {
		t.Errorf("self-call dropped: %v", err)
	}
}

func TestLatencyAccumulates(t *testing.T) {
	n := New(Options{Latency: ConstantLatency(5 * time.Millisecond)})
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Call("a", "b", i); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := n.SimulatedRTT(), 3*10*time.Millisecond; got != want {
		t.Errorf("SimulatedRTT = %v, want %v", got, want)
	}
}

// TestRealDelayBlocks: with SetRealDelay(true), a delivered RPC blocks the caller
// for its modeled round trip; self-calls and toggled-off networks do not.
func TestRealDelayBlocks(t *testing.T) {
	const oneWay = 20 * time.Millisecond
	n := New(Options{Latency: ConstantLatency(oneWay)})
	n.SetRealDelay(true)
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	start := time.Now()
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	if elapsed := time.Since(start); elapsed < 2*oneWay {
		t.Errorf("remote call took %v, want ≥ %v", elapsed, 2*oneWay)
	}
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	start = time.Now()
	if _, err := n.Call("a", "a", 1); err != nil {
		t.Fatal(err)
	}
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	if elapsed := time.Since(start); elapsed >= 2*oneWay {
		t.Errorf("self call slept %v", elapsed)
	}
	n.SetRealDelay(false)
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	start = time.Now()
	if _, err := n.Call("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	//lint:allow determinism this test verifies RealDelay produces real wall-clock sleeps, so it must measure real time
	if elapsed := time.Since(start); elapsed >= 2*oneWay {
		t.Errorf("call after SetRealDelay(false) slept %v", elapsed)
	}
	// Accounting is unaffected by the real sleeps: 2 remote calls.
	if got, want := n.SimulatedRTT(), 2*2*oneWay; got != want {
		t.Errorf("SimulatedRTT = %v, want %v", got, want)
	}
}

func TestNodesListing(t *testing.T) {
	n := New(Options{})
	for _, id := range []NodeID{"a", "b", "c"} {
		if err := n.Register(id, echoHandler()); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.NumNodes(); got != 3 {
		t.Errorf("NumNodes = %d, want 3", got)
	}
	seen := make(map[NodeID]bool)
	for _, id := range n.Nodes() {
		seen[id] = true
	}
	if len(seen) != 3 || !seen["a"] || !seen["b"] || !seen["c"] {
		t.Errorf("Nodes = %v", seen)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	n := New(Options{})
	want := errors.New("handler failure")
	err := n.Register("a", HandlerFunc(func(NodeID, any) (any, error) { return nil, want }))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("b", "a", 1); !errors.Is(err, want) {
		t.Errorf("Call = %v, want handler error", err)
	}
}
