package pastry

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

func buildOverlay(t *testing.T, n int) (*simnet.Network, *Overlay) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	o := NewOverlay(net, Config{Seed: 1})
	for i := 0; i < n; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	o.Stabilize(2)
	return net, o
}

// oracleOwner computes ground-truth ownership with the same comparator the
// overlay uses: numerically closest identifier, ties to the smaller.
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
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		_, o := buildOverlay(t, 10)
		return o
	})
}

func TestFaultTolerance(t *testing.T) {
	dhttest.RunFaultTolerance(t, func(t *testing.T) dht.DHT {
		_, o := buildOverlay(t, 10)
		return o
	})
}

func TestOwnerMatchesOracle(t *testing.T) {
	_, o := buildOverlay(t, 16)
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
	_, o := buildOverlay(t, 4)
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
		n, _ := o.NodeAt(owner)
		if _, found := n.StoreSnapshot()[k]; !found {
			t.Fatalf("key %q not stored at oracle owner %q", k, owner)
		}
	}
}

func TestCrashRecoversRouting(t *testing.T) {
	_, o := buildOverlay(t, 10)
	if err := o.CrashNode("node-6"); err != nil {
		t.Fatal(err)
	}
	o.Stabilize(3)
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

func TestRouteLengthReasonable(t *testing.T) {
	_, o := buildOverlay(t, 32)
	o.Hops.Reset()
	o.Lookups.Reset()
	for i := 0; i < 500; i++ {
		if _, err := o.Owner(dht.Key(fmt.Sprintf("probe-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mean := o.MeanRouteLength()
	if mean <= 0 {
		t.Fatal("no hops recorded")
	}
	if mean > 10 {
		t.Errorf("mean route length %.1f hops for 32 nodes; want ≲ 10", mean)
	}
}

func TestLeafSetBounded(t *testing.T) {
	_, o := buildOverlay(t, 24)
	for _, addr := range o.Nodes() {
		kn, _ := o.NodeAt(addr)
		n := kn.Routing().(*node)
		n.mu.Lock()
		got := len(n.leaves)
		n.mu.Unlock()
		if got > 2*leafHalf {
			t.Errorf("node %q leaf set size %d exceeds %d", addr, got, 2*leafHalf)
		}
		if got == 0 {
			t.Errorf("node %q leaf set empty", addr)
		}
	}
}

func TestEmptyOverlayErrors(t *testing.T) {
	net := simnet.New(simnet.Options{})
	o := NewOverlay(net, Config{})
	if err := o.Put("k", 1); err == nil {
		t.Error("Put on empty overlay succeeded")
	}
}

func TestDuplicateAddNode(t *testing.T) {
	_, o := buildOverlay(t, 2)
	if _, err := o.AddNode("node-0"); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
}

func TestDistributionAcrossNodes(t *testing.T) {
	_, o := buildOverlay(t, 12)
	for i := 0; i < 400; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("d%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	occupied := 0
	for _, addr := range o.Nodes() {
		n, _ := o.NodeAt(addr)
		if n.StoreLen() > 0 {
			occupied++
		}
	}
	if occupied < 6 {
		t.Errorf("only %d of 12 nodes hold data", occupied)
	}
}
