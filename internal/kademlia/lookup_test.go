package kademlia

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/simnet"
	"mlight/internal/transport"
)

// TestMalformedResponseEvictsCandidate is the regression test for the
// shortlist bug: a contact whose findNodeResp fails the type assertion used
// to stay in the shortlist (queried, never evicted) and could surface in
// the lookup result. It must be treated exactly like a call failure.
func TestMalformedResponseEvictsCandidate(t *testing.T) {
	o := buildOverlay(t, 6)
	rogueAddr := simnet.NodeID("rogue")
	rogue := ref{Addr: rogueAddr, ID: dht.HashString(string(rogueAddr))}
	err := o.Net().Register(rogueAddr, simnet.HandlerFunc(func(simnet.NodeID, any) (any, error) {
		return "garbage", nil // wrong type for every request
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Seed the rogue into a real node's routing table so the lookup
	// discovers it; target the rogue's own ID so it sorts closest and is
	// guaranteed to be queried.
	entry, ok := routing(o, "node-0")
	if !ok {
		t.Fatal("node-0 missing")
	}
	entry.observe(rogue)
	closest, err := RoutingOf(o).iterativeFindNode(entry.Ref(), rogue.ID)
	if err != nil {
		t.Fatalf("iterativeFindNode: %v", err)
	}
	if len(closest) == 0 {
		t.Fatal("lookup returned no contacts")
	}
	for _, c := range closest {
		if c.Addr == rogueAddr {
			t.Fatalf("malformed responder %q survived in the shortlist: %v", rogueAddr, closest)
		}
	}
}

// TestProbeLiveAccounting pins the liveness-probe bugfixes: the entry node
// vouches for itself (no self-ping RPC), every real ping is metered, and a
// failed ping is counted and surfaced instead of silently discarded.
func TestProbeLiveAccounting(t *testing.T) {
	o := buildOverlay(t, 4)
	entry, _ := routing(o, "node-0")
	liveNode, _ := routing(o, "node-1")
	deadAddr := simnet.NodeID("dead")
	dead := ref{Addr: deadAddr, ID: dht.HashString(string(deadAddr))}
	err := o.Net().Register(deadAddr, simnet.HandlerFunc(func(simnet.NodeID, any) (any, error) {
		return nil, errors.New("no pong")
	}))
	if err != nil {
		t.Fatal(err)
	}
	closest := []ref{entry.Ref(), dead, liveNode.Ref()}

	t.Run("parallel", func(t *testing.T) {
		RoutingOf(o).Pings.Reset()
		RoutingOf(o).PingFailures.Reset()
		out := RoutingOf(o).probeLive(entry.Ref(), closest, 3)
		if len(out) != 2 || out[0].Addr != entry.Addr() || out[1].Addr != liveNode.Addr() {
			t.Fatalf("probeLive = %v, want [entry, node-1]", out)
		}
		if got := RoutingOf(o).Pings.Load(); got != 2 {
			t.Errorf("Pings = %d, want 2 (entry must not be pinged)", got)
		}
		if got := RoutingOf(o).PingFailures.Load(); got != 1 {
			t.Errorf("PingFailures = %d, want 1", got)
		}
		if RoutingOf(o).LastPingError() == nil {
			t.Error("LastPingError = nil after a failed probe")
		}
	})

	t.Run("serial-early-exit", func(t *testing.T) {
		RoutingOf(o).Pings.Reset()
		RoutingOf(o).PingFailures.Reset()
		out := RoutingOf(o).probeLive(entry.Ref(), closest, 1)
		if len(out) != 1 || out[0].Addr != entry.Addr() {
			t.Fatalf("probeLive = %v, want [entry]", out)
		}
		// The entry satisfied count=1 by itself: zero network pings — the
		// old path paid one redundant self-ping RPC here.
		if got := RoutingOf(o).Pings.Load(); got != 0 {
			t.Errorf("Pings = %d, want 0", got)
		}
	})
}

// skewNet delays each call by an amount its destination picks, once on is
// set, so the RPCs of one α-batch finish in an order the delays choose;
// reverse inverts that order.
type skewNet struct {
	*simnet.Network
	reverse bool
	on      atomic.Bool
}

func (s *skewNet) Call(from, to transport.NodeID, req any) (any, error) {
	if s.on.Load() {
		d := time.Duration(dht.HashString(string(to))[0] % 4)
		if s.reverse {
			d = 3 - d
		}
		time.Sleep(d * 100 * time.Microsecond)
	}
	return s.Network.Call(from, to, req)
}

// TestSerialParallelIdenticalAccounting: the α-parallel lookup must report
// the same Hops and Lookups however its concurrent RPCs interleave — the
// round batches are chosen before any RPC is issued and outcomes merge in
// batch order, so two seeded runs whose RPCs finish in opposite orders
// agree on every value and counter.
func TestSerialParallelIdenticalAccounting(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	run := func(reverse bool) (*Overlay, map[dht.Key]any) {
		net := &skewNet{Network: simnet.New(simnet.Options{Seed: 3}), reverse: reverse}
		o := buildOverlayOn(t, net, 16, seed)
		net.on.Store(true)
		o.Hops.Reset()
		o.Lookups.Reset()
		got := make(map[dht.Key]any)
		for i := 0; i < 80; i++ {
			k := dht.Key(fmt.Sprintf("acct-%d", i))
			if err := o.Put(k, i); err != nil {
				t.Fatalf("Put(%q): %v", k, err)
			}
		}
		for i := 0; i < 80; i++ {
			k := dht.Key(fmt.Sprintf("acct-%d", i))
			v, ok, err := o.Get(k)
			if err != nil || !ok {
				t.Fatalf("Get(%q) = %v, %v, %v", k, v, ok, err)
			}
			got[k] = v
		}
		return o, got
	}
	a, gotA := run(false)
	b, gotB := run(true)
	for k, v := range gotA {
		if gotB[k] != v {
			t.Errorf("value mismatch at %q: %v, reversed %v", k, v, gotB[k])
		}
	}
	if x, y := a.Hops.Load(), b.Hops.Load(); x != y {
		t.Errorf("Hops: %d, reversed %d — accounting must not depend on scheduling", x, y)
	}
	if x, y := a.Lookups.Load(), b.Lookups.Load(); x != y {
		t.Errorf("Lookups: %d, reversed %d", x, y)
	}
	for _, o := range []*Overlay{a, b} {
		if hw := RoutingOf(o).LookupInFlight.Load(); hw < 2 {
			t.Errorf("LookupInFlight high-water = %d, want ≥ 2 (rounds actually ran concurrently)", hw)
		}
	}
}

// TestRoutePingsPinned pins the liveness probe's cost: on a lossless
// overlay a route pings only its closest contact, and only when that
// contact is not the entry, so 200 seeded routes send fewer than 200 pings.
// A probe that pinged every candidate sent about 7.5 a route here.
func TestRoutePingsPinned(t *testing.T) {
	o := buildOverlay(t, 16)
	r := RoutingOf(o)
	r.Pings.Reset()
	o.Hops.Reset()
	o.Lookups.Reset()
	for i := 0; i < 200; i++ {
		if _, err := o.Owner(dht.Key(fmt.Sprintf("ping-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d pings, %.2f FIND_NODE RPCs a route", r.Pings.Load(), o.MeanRouteLength())
	if got := r.Pings.Load(); got != 190 {
		t.Errorf("Pings = %d over 200 routes, want 190", got)
	}
	if got := r.PingFailures.Load(); got != 0 {
		t.Errorf("PingFailures = %d on a lossless overlay, want 0", got)
	}
}

// TestLookupUnderLoss runs the shared dhttest conformance case: seeded link
// loss, bounded retries, ≥90% resolution, zero terminal failures.
func TestLookupUnderLoss(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	dhttest.RunLookupUnderLoss(t, func(t *testing.T, seed int64) (dht.DHT, func(float64)) {
		net := simnet.New(simnet.Options{Seed: seed})
		// Replication 3 is the paper's own answer to lossy links: the key
		// lives at the closest replicas, so one dropped ping or retrieve
		// cannot silently misroute a read.
		o := NewOverlay(net, Config{Seed: seed, Replication: 3})
		for i := 0; i < 12; i++ {
			if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				t.Fatalf("AddNode(%d): %v", i, err)
			}
		}
		o.Stabilize(2)
		return o, net.SetDropRate
	})
}

// TestConcurrentLookupStress drives many α-parallel lookups from competing
// goroutines — the -race companion to the determinism tests. Phase one is
// lossless and must fully succeed; phase two injects loss and only requires
// the overlay to stay race-free and return classified errors.
func TestConcurrentLookupStress(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	o := buildOverlay(t, 16)
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("stress-%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx := (g*25 + i) % keys
				v, ok, err := o.Get(dht.Key(fmt.Sprintf("stress-%d", idx)))
				if err != nil || !ok || v != idx {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d lossless concurrent Gets failed", n)
	}

	o.Net().(*simnet.Network).SetDropRate(0.05)
	var failed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				k := dht.Key(fmt.Sprintf("stress-%d", (g*15+i)%keys))
				if _, _, err := o.Get(k); err != nil {
					failed.Add(1) // loss may fail lookups; racing is the bug
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("lossy phase: %d/120 Gets failed (loss-induced, tolerated)", failed.Load())
}
