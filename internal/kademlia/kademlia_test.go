package kademlia

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

func buildOverlay(t *testing.T, n int) *Overlay {
	t.Helper()
	net := simnet.New(simnet.Options{})
	o := NewOverlay(net, Config{Config: overlay.Config{Seed: 1}})
	for i := 0; i < n; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	o.Stabilize(2)
	return o
}

// routing returns the kademlia routing state of a managed node.
func routing(o *Overlay, addr simnet.NodeID) (*node, bool) {
	n, ok := o.NodeAt(addr)
	if !ok {
		return nil, false
	}
	return n.Routing().(*node), true
}

// oracleOwner computes ground-truth ownership: minimal XOR distance.
func oracleOwner(o *Overlay, key dht.Key) simnet.NodeID {
	h := dht.HashKey(key)
	var best ref
	for _, addr := range o.Nodes() {
		if n := overlay.RefOf(addr); best.IsZero() || closerTo(h, n.ID, best.ID) {
			best = n
		}
	}
	return best.Addr
}

func TestConformance(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		return buildOverlay(t, 10)
	})
}

func TestFaultTolerance(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	dhttest.RunFaultTolerance(t, func(t *testing.T) dht.DHT {
		return buildOverlay(t, 10)
	})
}

func TestXORMetric(t *testing.T) {
	a := dht.HashString("a")
	b := dht.HashString("b")
	var zero dht.ID
	if xorDist(a, a) != zero {
		t.Error("d(a,a) != 0")
	}
	if xorDist(a, b) != xorDist(b, a) {
		t.Error("XOR distance not symmetric")
	}
	// Triangle equality of XOR: d(a,c) = d(a,b) XOR d(b,c).
	c := dht.HashString("c")
	if xorDist(a, c) != xorDist(xorDist(a, b), xorDist(zero, xorDist(b, c))) {
		t.Error("XOR composition broken")
	}
}

func TestOwnerMatchesOracle(t *testing.T) {
	o := buildOverlay(t, 16)
	for i := 0; i < 300; i++ {
		key := dht.Key(fmt.Sprintf("key-%d", i))
		got, err := o.Owner(key)
		if err != nil {
			t.Fatalf("Owner(%q): %v", key, err)
		}
		if want := oracleOwner(o, key); got != string(want) {
			t.Fatalf("Owner(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestJoinMovesKeys(t *testing.T) {
	o := buildOverlay(t, 4)
	keys := make([]dht.Key, 0, 300)
	for i := 0; i < 300; i++ {
		k := dht.Key(fmt.Sprintf("jk%d", i))
		keys = append(keys, k)
		if err := o.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 12; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(2)
	for i, k := range keys {
		v, ok, err := o.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("after joins Get(%q) = %v, %v, %v", k, v, ok, err)
		}
		owner := oracleOwner(o, k)
		n, _ := routing(o, owner)
		if _, found := n.StoreSnapshot()[k]; !found {
			t.Fatalf("key %q not at oracle owner %q", k, owner)
		}
	}
}

func TestCrashRecoversRouting(t *testing.T) {
	o := buildOverlay(t, 10)
	if err := o.CrashNode("node-6"); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(2)
	for i := 0; i < 100; i++ {
		k := dht.Key(fmt.Sprintf("ck%d", i))
		if err := o.Put(k, i); err != nil {
			t.Fatalf("Put after crash: %v", err)
		}
		v, ok, err := o.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("Get after crash = %v, %v, %v", v, ok, err)
		}
	}
	if err := o.CrashNode("node-6"); err == nil {
		t.Error("double CrashNode succeeded")
	}
}

func TestLookupCostLogarithmic(t *testing.T) {
	o := buildOverlay(t, 32)
	o.Hops.Reset()
	o.Lookups.Reset()
	for i := 0; i < 300; i++ {
		if _, err := o.Owner(dht.Key(fmt.Sprintf("probe-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mean := o.MeanRouteLength()
	if mean <= 0 {
		t.Fatal("no hops recorded")
	}
	// With α=3 parallel probes the RPC count per lookup stays modest.
	if mean > 20 {
		t.Errorf("mean FIND_NODE RPCs per lookup = %.1f for 32 nodes", mean)
	}
}

func TestBucketsBounded(t *testing.T) {
	o := buildOverlay(t, 24)
	for _, addr := range o.Nodes() {
		n, _ := routing(o, addr)
		n.mu.Lock()
		for i, b := range n.buckets {
			if len(b) > K {
				t.Errorf("node %q bucket %d holds %d > K", addr, i, len(b))
			}
			for _, c := range b {
				if n.ID().CommonPrefixDigits(c.ID, 1) != i {
					t.Errorf("node %q: contact %v in wrong bucket %d", addr, c.ID, i)
				}
			}
		}
		n.mu.Unlock()
	}
}

func TestEmptyOverlayErrors(t *testing.T) {
	o := NewOverlay(simnet.New(simnet.Options{}), Config{})
	if err := o.Put("k", 1); err == nil {
		t.Error("Put on empty overlay succeeded")
	}
}

func TestDuplicateAddNode(t *testing.T) {
	o := buildOverlay(t, 2)
	if _, err := o.AddNode("node-0"); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
}

func TestDistributionAcrossNodes(t *testing.T) {
	o := buildOverlay(t, 12)
	for i := 0; i < 400; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("d%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	occupied := 0
	for _, addr := range o.Nodes() {
		n, _ := routing(o, addr)
		if n.StoreLen() > 0 {
			occupied++
		}
	}
	if occupied < 6 {
		t.Errorf("only %d of 12 nodes hold data", occupied)
	}
}

func buildReplicatedOverlay(t *testing.T, n, replication int) *Overlay {
	t.Helper()
	net := simnet.New(simnet.Options{})
	o := NewOverlay(net, Config{Config: overlay.Config{Seed: 1, Replication: replication}})
	for i := 0; i < n; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(2)
	return o
}

func TestReplicationSurvivesCrash(t *testing.T) {
	o := buildReplicatedOverlay(t, 14, 3)
	for i := 0; i < 250; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("rk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	for _, victim := range []simnet.NodeID{"node-3", "node-9"} {
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

func TestReplicationApplyPropagates(t *testing.T) {
	o := buildReplicatedOverlay(t, 10, 3)
	inc := func(cur any, ok bool) (any, bool) {
		if !ok {
			return 1, true
		}
		n, _ := cur.(int)
		return n + 1, true
	}
	for i := 0; i < 4; i++ {
		if err := o.Apply("ctr", inc); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the closest holder; the surviving replica answers with the
	// latest applied value.
	owner, err := o.Owner("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CrashNode(simnet.NodeID(owner)); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(2)
	v, ok, err := o.Get("ctr")
	if err != nil || !ok || v != 4 {
		t.Fatalf("counter after crash = %v, %v, %v", v, ok, err)
	}
}

func TestReplicationRangeDeduplicates(t *testing.T) {
	o := buildReplicatedOverlay(t, 8, 3)
	for i := 0; i < 60; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("dk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := o.Range(func(dht.Key, any) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 60 {
		t.Errorf("Range reported %d entries for 60 keys (replication leaked)", count)
	}
}

func TestReplicationFactorClamped(t *testing.T) {
	o := NewOverlay(simnet.New(simnet.Options{}), Config{Config: overlay.Config{Replication: 99}})
	if o.Replication() != K {
		t.Errorf("replication = %d, want clamp at %d", o.Replication(), K)
	}
	o2 := NewOverlay(simnet.New(simnet.Options{}), Config{Config: overlay.Config{Replication: -1}})
	if o2.Replication() != 1 {
		t.Errorf("replication = %d, want 1", o2.Replication())
	}
}
