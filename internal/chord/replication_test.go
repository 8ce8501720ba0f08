package chord

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
)

// buildReplicatedRing creates a stabilized ring with the given replication
// factor.
func buildReplicatedRing(t *testing.T, n, replication int) *Ring {
	t.Helper()
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Seed: 1, Replication: replication})
	for i := 0; i < n; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	ring.Stabilize(2)
	return ring
}

func TestReplicationSurvivesSingleCrash(t *testing.T) {
	ring := buildReplicatedRing(t, 12, 3)
	for i := 0; i < 300; i++ {
		if err := ring.Put(dht.Key(fmt.Sprintf("rk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(1) // settle replica placement
	if err := ring.CrashNode("node-5"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	for i := 0; i < 300; i++ {
		k := dht.Key(fmt.Sprintf("rk%d", i))
		v, ok, err := ring.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("after crash Get(%q) = %v, %v, %v", k, v, ok, err)
		}
	}
}

func TestReplicationSurvivesTwoCrashes(t *testing.T) {
	ring := buildReplicatedRing(t, 16, 3)
	for i := 0; i < 300; i++ {
		if err := ring.Put(dht.Key(fmt.Sprintf("dk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(1)
	// Crash two nodes with stabilization between them (sequential failures,
	// the scenario r=3 is built for).
	if err := ring.CrashNode("node-3"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	if err := ring.CrashNode("node-9"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	lost := 0
	for i := 0; i < 300; i++ {
		k := dht.Key(fmt.Sprintf("dk%d", i))
		v, ok, err := ring.Get(k)
		if err != nil || !ok || v != i {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d of 300 keys lost after two sequential crashes with r=3", lost)
	}
}

func TestNoReplicationLosesDataOnCrash(t *testing.T) {
	ring := buildReplicatedRing(t, 12, 1)
	for i := 0; i < 300; i++ {
		if err := ring.Put(dht.Key(fmt.Sprintf("nk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	victim := "node-4"
	n, _ := ring.NodeAt(simnet.NodeID(victim))
	atRisk := n.StoreLen()
	if atRisk == 0 {
		t.Skip("victim holds no keys in this hash layout")
	}
	if err := ring.CrashNode(simnet.NodeID(victim)); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	lost := 0
	for i := 0; i < 300; i++ {
		// An unreachable key counts as lost whether the miss is a clean
		// not-found or a routing error to the dead node.
		if _, ok, err := ring.Get(dht.Key(fmt.Sprintf("nk%d", i))); err != nil || !ok {
			lost++
		}
	}
	if lost != atRisk {
		t.Errorf("lost %d keys, expected exactly the victim's %d (r=1)", lost, atRisk)
	}
}

func TestReplicationApplySurvivesCrash(t *testing.T) {
	ring := buildReplicatedRing(t, 10, 2)
	inc := func(cur any, ok bool) (any, bool) {
		if !ok {
			return 1, true
		}
		n, _ := cur.(int)
		return n + 1, true
	}
	for i := 0; i < 5; i++ {
		if err := ring.Apply("counter", inc); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(1)
	owner, err := ring.Owner("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.CrashNode(simnet.NodeID(owner)); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	v, ok, err := ring.Get("counter")
	if err != nil || !ok || v != 5 {
		t.Fatalf("counter after owner crash = %v, %v, %v", v, ok, err)
	}
	// Further applies keep working on the promoted copy.
	if err := ring.Apply("counter", inc); err != nil {
		t.Fatal(err)
	}
	if v, _, err := ring.Get("counter"); err != nil {
		t.Fatal(err)
	} else if v != 6 {
		t.Fatalf("counter after post-crash apply = %v", v)
	}
}

func TestReplicationRemoveDropsReplicas(t *testing.T) {
	ring := buildReplicatedRing(t, 8, 3)
	if err := ring.Put("gone", "x"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(1)
	if err := ring.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(1)
	// Even after the owner crashes, no replica resurrects the key.
	owner, err := ring.Owner("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.CrashNode(simnet.NodeID(owner)); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	if _, ok, err := ring.Get("gone"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("removed key resurrected from a replica")
	}
}

// TestReplicationConvergesUnderLoss is the regression test for the silent
// replica-loss bug: replication RPC errors used to be discarded
// (`_, _ = net.Call(...)`), so a lossy network quietly shrank the replica
// set with no trace. Now pushes are retried, terminal failures are counted
// in ReplicationErrors, and periodic repair re-pushes entries until the
// replica set converges.
func TestReplicationConvergesUnderLoss(t *testing.T) {
	const keys = 200
	net := simnet.New(simnet.Options{Seed: 42})
	ring := NewRing(net, Config{Seed: 1, Replication: 3})
	for i := 0; i < 12; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	ring.Stabilize(2)

	// Write through a lossy network. Client-side Put retries mimic what the
	// dht.Resilient layer does for an index; the replica pushes inside Put
	// go through the ring's own retry layer.
	net.SetDropRate(0.1)
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if err = ring.Put(k, i); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("Put(%q) kept failing: %v", k, err)
		}
	}
	st := ring.ReplicationRetrier().Stats().Snapshot()
	if st.Retries == 0 {
		t.Error("no replication retries at DropRate 0.1 — retry layer not exercised")
	}

	// Heal the network and run one repair round: the replica set must
	// converge to exactly r-1 copies of every key.
	net.SetDropRate(0)
	ring.Stabilize(1)
	primaries, replicas := 0, 0
	for _, addr := range ring.Nodes() {
		n, _ := ring.NodeAt(addr)
		primaries += n.StoreLen()
		replicas += len(n.ReplicaSnapshot())
	}
	if primaries != keys {
		t.Errorf("primary copies = %d, want %d", primaries, keys)
	}
	if replicas != 2*keys {
		t.Errorf("replica copies after repair = %d, want %d (r=3)", replicas, 2*keys)
	}

	// The converged replicas are real: all keys survive a crash.
	if err := ring.CrashNode("node-7"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(2)
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		v, ok, err := ring.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("after crash Get(%q) = %v, %v, %v", k, v, ok, err)
		}
	}
}

func TestReplicationFactorClamped(t *testing.T) {
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Replication: 99})
	if ring.Replication() != SuccessorListLen+1 {
		t.Errorf("replication = %d, want clamp at %d", ring.Replication(), SuccessorListLen+1)
	}
	ring2 := NewRing(simnet.New(simnet.Options{}), Config{Replication: -3})
	if ring2.Replication() != 1 {
		t.Errorf("replication = %d, want 1", ring2.Replication())
	}
}

func TestReplicasAreBounded(t *testing.T) {
	ring := buildReplicatedRing(t, 10, 2)
	for i := 0; i < 200; i++ {
		if err := ring.Put(dht.Key(fmt.Sprintf("bk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	// Total primary copies = 200; replica copies ≤ 200 * (r-1).
	primaries, replicas := 0, 0
	for _, addr := range ring.Nodes() {
		n, _ := ring.NodeAt(addr)
		primaries += n.StoreLen()
		replicas += len(n.ReplicaSnapshot())
	}
	if primaries != 200 {
		t.Errorf("primary copies = %d, want 200", primaries)
	}
	if replicas > 200 {
		t.Errorf("replica copies = %d, want ≤ 200 for r=2", replicas)
	}
	if replicas < 150 {
		t.Errorf("replica copies = %d; repair seems not to be running", replicas)
	}
}
