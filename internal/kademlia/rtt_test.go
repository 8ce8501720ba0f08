package kademlia

import (
	"testing"
	"time"

	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

// TestRTTDecayGrowsDeadline is the regression test for the stale-RTT
// deadlock: an estimator trained on a fast pre-restart peer kept issuing
// the same too-tight deadline forever, because timeouts produce no RTT
// sample to correct it. Decay must grow the deadline deterministically
// until calls can succeed again, and successes must then re-tighten it.
func TestRTTDecayGrowsDeadline(t *testing.T) {
	e := rttEstimator{fallback: 300 * time.Millisecond}

	// Train on a fast peer: deadline sits at the floor.
	for i := 0; i < 8; i++ {
		e.observe(10 * time.Millisecond)
	}
	if got := e.timeout(); got != minRPCTimeout {
		t.Fatalf("trained deadline = %v, want floor %v", got, minRPCTimeout)
	}

	// The peer restarts slower; every call times out. Each decay must
	// strictly grow the deadline until the cap.
	prev := e.timeout()
	grew := 0
	for i := 0; i < 20; i++ {
		e.decay()
		cur := e.timeout()
		if cur < prev {
			t.Fatalf("decay %d shrank deadline: %v -> %v", i, prev, cur)
		}
		if cur > prev {
			grew++
		}
		prev = cur
	}
	if grew == 0 {
		t.Fatal("20 decays never grew the deadline")
	}
	if want := 4 * maxDecayedRTT; prev != want {
		t.Fatalf("saturated deadline = %v, want cap %v", prev, want)
	}

	// Calls succeed again; observations re-tighten the estimate back to
	// the floor.
	for i := 0; i < 64; i++ {
		e.observe(10 * time.Millisecond)
	}
	if got := e.timeout(); got != minRPCTimeout {
		t.Errorf("re-tightened deadline = %v, want floor %v", got, minRPCTimeout)
	}
}

// TestRTTDecayPreObservation: a timeout before any successful observation
// must also back off, starting from the seeded fallback.
func TestRTTDecayPreObservation(t *testing.T) {
	e := rttEstimator{fallback: 300 * time.Millisecond}
	if got := e.timeout(); got != e.fallback {
		t.Fatalf("pre-observation deadline = %v, want fallback %v", got, e.fallback)
	}
	e.decay()
	if got, want := e.timeout(), 2*e.fallback; got != want {
		t.Fatalf("deadline after pre-observation decay = %v, want %v", got, want)
	}
}

// TestRTTReset returns the estimator to its seeded fallback.
func TestRTTReset(t *testing.T) {
	e := rttEstimator{fallback: 300 * time.Millisecond}
	e.observe(50 * time.Millisecond)
	if got := e.timeout(); got == e.fallback {
		t.Fatal("observation did not move the deadline off the fallback")
	}
	e.reset()
	if got := e.timeout(); got != e.fallback {
		t.Fatalf("deadline after reset = %v, want fallback %v", got, e.fallback)
	}
}

// TestOverlayRPCDeadline: fixed-timeout mode reports the configured value;
// adaptive mode reports the estimator's current deadline and
// ResetRTTEstimate returns it to the seeded fallback.
func TestOverlayRPCDeadline(t *testing.T) {
	fixed := NewOverlay(simnet.New(simnet.Options{}), Config{Config: overlay.Config{Seed: 1}, RPCTimeout: 700 * time.Millisecond})
	if got := RoutingOf(fixed).RPCDeadline(); got != 700*time.Millisecond {
		t.Errorf("fixed RPCDeadline = %v, want 700ms", got)
	}

	adaptive := NewOverlay(simnet.New(simnet.Options{}), Config{Config: overlay.Config{Seed: 1}})
	base := RoutingOf(adaptive).RPCDeadline()
	if base < minRPCTimeout || base >= 2*minRPCTimeout {
		t.Fatalf("adaptive fallback deadline = %v, want in [%v, %v)", base, minRPCTimeout, 2*minRPCTimeout)
	}
	RoutingOf(adaptive).rtt.observe(time.Second)
	if got := RoutingOf(adaptive).RPCDeadline(); got != 4*time.Second {
		t.Errorf("adaptive deadline after 1s observation = %v, want 4s", got)
	}
	RoutingOf(adaptive).ResetRTTEstimate()
	if got := RoutingOf(adaptive).RPCDeadline(); got != base {
		t.Errorf("deadline after ResetRTTEstimate = %v, want fallback %v", got, base)
	}
}
