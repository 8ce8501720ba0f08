package chord

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
)

// TestBulkBuildMatchesIncrementalFixpoint: a bulk-built ring must hold
// exactly the routing state an incrementally-joined, fully-stabilized ring
// converges to — same predecessors, successor lists, and finger tables.
func TestBulkBuildMatchesIncrementalFixpoint(t *testing.T) {
	const n = 24
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}

	_, incr := buildRing(t, n)
	incr.Stabilize(6) // well past convergence

	bnet := simnet.New(simnet.Options{})
	bulk := NewRing(bnet, Config{Seed: 1})
	if _, err := AddNodesBulk(bulk, addrs); err != nil {
		t.Fatal(err)
	}

	for _, addr := range addrs {
		ist, bst := stateOf(routing(t, incr, addr)), stateOf(routing(t, bulk, addr))
		ipred, isuccs, ifingers := ist.pred, ist.succs, ist.fingers
		bpred, bsuccs, bfingers := bst.pred, bst.succs, bst.fingers
		if ipred != bpred {
			t.Errorf("%s: pred %v vs %v", addr, ipred.Addr, bpred.Addr)
		}
		if len(isuccs) != len(bsuccs) {
			t.Fatalf("%s: succ list %d vs %d", addr, len(isuccs), len(bsuccs))
		}
		for i := range isuccs {
			if isuccs[i] != bsuccs[i] {
				t.Errorf("%s: succ[%d] %v vs %v", addr, i, isuccs[i].Addr, bsuccs[i].Addr)
			}
		}
		for i := range ifingers {
			if ifingers[i] != bfingers[i] {
				t.Errorf("%s: finger[%d] %v vs %v", addr, i, ifingers[i].Addr, bfingers[i].Addr)
			}
		}
	}
}

// TestBulkBuildServesData: the bulk-built overlay routes and stores
// correctly, and every lookup lands on the oracle owner.
func TestBulkBuildServesData(t *testing.T) {
	const n = 32
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Seed: 1})
	if _, err := AddNodesBulk(ring, addrs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := dht.Key(fmt.Sprintf("k%d", i))
		if owner, err := ring.Owner(key); err != nil || simnet.NodeID(owner) != oracleOwner(ring, key) {
			t.Fatalf("Owner(%s) = %q (%v), oracle %q", key, owner, err, oracleOwner(ring, key))
		}
		if err := ring.Put(key, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := dht.Key(fmt.Sprintf("k%d", i))
		v, ok, err := ring.Get(key)
		if err != nil || !ok || v != i {
			t.Fatalf("Get(%s) = %v %v %v", key, v, ok, err)
		}
	}
	if mrl := ring.MeanRouteLength(); mrl <= 0 || mrl > 10 {
		t.Fatalf("mean route length %.2f implausible for %d nodes", mrl, n)
	}
	// Stabilization over the bulk-built state must be a no-op (it is already
	// the fixpoint) — data keeps being served.
	ring.Stabilize(2)
	if v, ok, err := ring.Get("k0"); err != nil || !ok || v != 0 {
		t.Fatalf("post-stabilize Get = %v %v %v", v, ok, err)
	}
}

// TestBulkBuildRejectsBadInput covers the preconditions.
func TestBulkBuildRejectsBadInput(t *testing.T) {
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Seed: 1})
	if _, err := AddNodesBulk(ring, nil); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := AddNodesBulk(ring, []simnet.NodeID{"a", "a"}); err == nil {
		t.Error("duplicate addresses accepted")
	}
	if net.NumNodes() != 0 {
		t.Fatalf("failed bulk build leaked %d registrations", net.NumNodes())
	}
	if _, err := AddNodesBulk(ring, []simnet.NodeID{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := AddNodesBulk(ring, []simnet.NodeID{"c"}); err == nil {
		t.Error("bulk build on a non-empty ring accepted")
	}
	// Singleton ring sanity.
	net2 := simnet.New(simnet.Options{})
	ring2 := NewRing(net2, Config{Seed: 1})
	if _, err := AddNodesBulk(ring2, []simnet.NodeID{"solo"}); err != nil {
		t.Fatal(err)
	}
	if err := ring2.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := ring2.Get("k"); err != nil || !ok || v != 1 {
		t.Fatalf("singleton Get = %v %v %v", v, ok, err)
	}
}

// BenchmarkBulkBuild wires a complete 1k-node ring per iteration — the
// operation that makes the 100k-peer scale run feasible (O(n log n) direct
// wiring vs O(n²) incremental join traffic).
func BenchmarkBulkBuild(b *testing.B) {
	const n = 1000
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
		if _, err := AddNodesBulk(ring, addrs); err != nil {
			b.Fatal(err)
		}
	}
}
