package pastry

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
)

func buildReplicatedOverlay(t *testing.T, n, replication int) *Overlay {
	t.Helper()
	net := simnet.New(simnet.Options{})
	o := NewOverlay(net, Config{Seed: 1, Replication: replication})
	for i := 0; i < n; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(2)
	return o
}

func TestLeafSetReplicationSurvivesCrash(t *testing.T) {
	o := buildReplicatedOverlay(t, 14, 3)
	for i := 0; i < 250; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("rk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(1) // settle replica placement
	for _, victim := range []simnet.NodeID{"node-2", "node-11"} {
		if err := o.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		o.Stabilize(2)
	}
	lost := 0
	for i := 0; i < 250; i++ {
		v, ok, err := o.Get(dht.Key(fmt.Sprintf("rk%d", i)))
		if err != nil || !ok || v != i {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d of 250 keys lost after two crashes with r=3", lost)
	}
}

func TestLeafSetReplicationApply(t *testing.T) {
	o := buildReplicatedOverlay(t, 10, 2)
	inc := func(cur any, ok bool) (any, bool) {
		if !ok {
			return 1, true
		}
		n, _ := cur.(int)
		return n + 1, true
	}
	for i := 0; i < 6; i++ {
		if err := o.Apply("ctr", inc); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(1)
	owner, err := o.Owner("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CrashNode(simnet.NodeID(owner)); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(2)
	v, ok, err := o.Get("ctr")
	if err != nil || !ok || v != 6 {
		t.Fatalf("counter after owner crash = %v, %v, %v", v, ok, err)
	}
	// Post-crash writes promote the replica and keep counting.
	if err := o.Apply("ctr", inc); err != nil {
		t.Fatal(err)
	}
	if v, _, err := o.Get("ctr"); err != nil {
		t.Fatal(err)
	} else if v != 7 {
		t.Fatalf("counter after post-crash apply = %v", v)
	}
}

func TestLeafSetReplicationRemoveDropsReplicas(t *testing.T) {
	o := buildReplicatedOverlay(t, 8, 3)
	if err := o.Put("gone", "x"); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(1)
	if err := o.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	owner, err := o.Owner("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CrashNode(simnet.NodeID(owner)); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(2)
	if _, ok, err := o.Get("gone"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("removed key resurrected from a replica")
	}
}

// TestLeafSetReplicationConvergesUnderLoss mirrors the chord regression
// test for the silent replica-loss bug: with a lossy network during writes,
// retried pushes plus one clean repair round converge the replica set, and
// the converged copies really do survive a crash.
func TestLeafSetReplicationConvergesUnderLoss(t *testing.T) {
	const keys = 150
	net := simnet.New(simnet.Options{Seed: 42})
	o := NewOverlay(net, Config{Seed: 1, Replication: 3})
	for i := 0; i < 12; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(2)

	net.SetDropRate(0.1)
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if err = o.Put(k, i); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("Put(%q) kept failing: %v", k, err)
		}
	}
	if st := o.ReplicationRetrier().Stats().Snapshot(); st.Retries == 0 {
		t.Error("no replication retries at DropRate 0.1 — retry layer not exercised")
	}

	net.SetDropRate(0)
	o.Stabilize(1)
	countCopies := func() (primaries int, holders map[dht.Key]int) {
		holders = make(map[dht.Key]int, keys)
		for _, addr := range o.Nodes() {
			n, _ := o.NodeAt(addr)
			primaries += n.StoreLen()
			for k := range n.ReplicaSnapshot() {
				holders[k]++
			}
		}
		return primaries, holders
	}
	primaries, holders := countCopies()
	if primaries != keys {
		t.Errorf("primary copies = %d, want %d", primaries, keys)
	}
	// Exact reconvergence: placement is deterministic (each key's r-1
	// targets are its line of succession, never diverted by liveness
	// probes), so one clean repair round restores exactly r-1 copies per
	// key — the same invariant the chord regression test pins.
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		if holders[k] != 2 {
			t.Errorf("key %q has %d replica copies after repair, want exactly 2 (r=3)", k, holders[k])
		}
	}

	// The converged copies must survive a crash: ownership moves to the
	// closest survivor, which promotes its replica, and repair restores the
	// full replica set for every key.
	if err := o.CrashNode("node-5"); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(2)
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		v, ok, err := o.Get(k)
		if err != nil || !ok || v != i {
			t.Errorf("key %q after crash: %v, %v, %v", k, v, ok, err)
		}
	}
	primaries, holders = countCopies()
	if primaries != keys {
		t.Errorf("primary copies after crash = %d, want %d", primaries, keys)
	}
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("lk%d", i))
		if holders[k] != 2 {
			t.Errorf("key %q has %d replica copies after crash repair, want exactly 2", k, holders[k])
		}
	}
}

func TestReplicationClamped(t *testing.T) {
	o := NewOverlay(simnet.New(simnet.Options{}), Config{Replication: 99})
	if o.Replication() != leafHalf {
		t.Errorf("replication = %d, want clamp at %d", o.Replication(), leafHalf)
	}
}

func TestReplicasHeldOnNeighbours(t *testing.T) {
	o := buildReplicatedOverlay(t, 10, 3)
	for i := 0; i < 100; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("hk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(1)
	primaries, replicas := 0, 0
	for _, addr := range o.Nodes() {
		n, _ := o.NodeAt(addr)
		primaries += n.StoreLen()
		replicas += len(n.ReplicaSnapshot())
	}
	if primaries != 100 {
		t.Errorf("primary copies = %d, want 100", primaries)
	}
	// Deterministic per-key placement: exactly r-1 copies per key on a
	// lossless network.
	if replicas != 200 {
		t.Errorf("replica copies = %d, want exactly 200 for r=3", replicas)
	}
}
