package chord

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/simnet"
)

// buildRing creates a ring of n nodes named node-0 … node-(n-1) and runs
// enough stabilization to settle routing state.
func buildRing(t *testing.T, n int) (*simnet.Network, *Ring) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Seed: 1})
	for i := 0; i < n; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	ring.Stabilize(2)
	return net, ring
}

// routing returns the chord routing state of a managed node.
func routing(t *testing.T, ring *Ring, addr simnet.NodeID) *node {
	t.Helper()
	n, ok := ring.NodeAt(addr)
	if !ok {
		t.Fatalf("node %q not managed", addr)
	}
	return n.Routing().(*node)
}

// oracleOwner computes the correct owner of a key from the ground truth:
// the first node identifier at or after hash(key) on the ring.
func oracleOwner(ring *Ring, key dht.Key) simnet.NodeID {
	type ent struct {
		id   dht.ID
		addr simnet.NodeID
	}
	var ents []ent
	for _, addr := range ring.Nodes() {
		ents = append(ents, ent{id: dht.HashString(string(addr)), addr: addr})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].id.Cmp(ents[j].id) < 0 })
	h := dht.HashKey(key)
	for _, e := range ents {
		if e.id.Cmp(h) >= 0 {
			return e.addr
		}
	}
	return ents[0].addr
}

func TestSingletonRing(t *testing.T) {
	_, ring := buildRing(t, 1)
	if err := ring.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ring.Get("k")
	if err != nil || !ok || v != "v" {
		t.Fatalf("Get = %v, %v, %v", v, ok, err)
	}
}

func TestOwnerMatchesOracle(t *testing.T) {
	_, ring := buildRing(t, 16)
	for i := 0; i < 300; i++ {
		key := dht.Key(fmt.Sprintf("key-%d", i))
		got, err := ring.Owner(key)
		if err != nil {
			t.Fatalf("Owner(%q): %v", key, err)
		}
		if want := oracleOwner(ring, key); got != string(want) {
			t.Fatalf("Owner(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestPutGetRemoveAcrossRing(t *testing.T) {
	_, ring := buildRing(t, 12)
	for i := 0; i < 200; i++ {
		key := dht.Key(fmt.Sprintf("k%d", i))
		if err := ring.Put(key, i); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
	}
	for i := 0; i < 200; i++ {
		key := dht.Key(fmt.Sprintf("k%d", i))
		v, ok, err := ring.Get(key)
		if err != nil || !ok || v != i {
			t.Fatalf("Get(%q) = %v, %v, %v", key, v, ok, err)
		}
	}
	if err := ring.Remove("k0"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ring.Get("k0"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("Remove left value")
	}
	// Values are spread over several nodes, not piled on one.
	occupied := 0
	for _, addr := range ring.Nodes() {
		n, _ := ring.NodeAt(addr)
		if n.StoreLen() > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Errorf("only %d nodes hold data; distribution looks broken", occupied)
	}
}

func TestApply(t *testing.T) {
	_, ring := buildRing(t, 8)
	for i := 0; i < 5; i++ {
		err := ring.Apply("acc", func(cur any, ok bool) (any, bool) {
			if !ok {
				return 1, true
			}
			n, castOK := cur.(int)
			if !castOK {
				t.Errorf("Apply saw %T", cur)
			}
			return n + 1, true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := ring.Get("acc")
	if err != nil || !ok || v != 5 {
		t.Fatalf("Get(acc) = %v, %v, %v", v, ok, err)
	}
	// Delete via Apply.
	if err := ring.Apply("acc", func(any, bool) (any, bool) { return nil, false }); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ring.Get("acc"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("Apply(keep=false) left value")
	}
}

func TestJoinMovesKeys(t *testing.T) {
	_, ring := buildRing(t, 4)
	keys := make([]dht.Key, 0, 300)
	for i := 0; i < 300; i++ {
		k := dht.Key(fmt.Sprintf("jk%d", i))
		keys = append(keys, k)
		if err := ring.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 12; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	for i, k := range keys {
		v, ok, err := ring.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("after joins Get(%q) = %v, %v, %v", k, v, ok, err)
		}
		// Data must live exactly at the oracle owner.
		owner := oracleOwner(ring, k)
		n, _ := ring.NodeAt(owner)
		if _, found := n.StoreSnapshot()[k]; !found {
			t.Fatalf("key %q not stored at oracle owner %q", k, owner)
		}
	}
}

func TestCrashRecoversRouting(t *testing.T) {
	_, ring := buildRing(t, 10)
	if err := ring.CrashNode("node-4"); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(3)
	// The overlay routes again; data on node-4 is lost by design (no
	// replication), but fresh keys must be storable and retrievable.
	for i := 0; i < 100; i++ {
		k := dht.Key(fmt.Sprintf("ck%d", i))
		if err := ring.Put(k, i); err != nil {
			t.Fatalf("Put after crash: %v", err)
		}
		v, ok, err := ring.Get(k)
		if err != nil || !ok || v != i {
			t.Fatalf("Get after crash = %v, %v, %v", v, ok, err)
		}
	}
	if err := ring.CrashNode("node-4"); err == nil {
		t.Error("double CrashNode succeeded")
	}
}

func TestRange(t *testing.T) {
	_, ring := buildRing(t, 6)
	want := map[dht.Key]int{}
	for i := 0; i < 50; i++ {
		k := dht.Key(fmt.Sprintf("rk%d", i))
		want[k] = i
		if err := ring.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	got := map[dht.Key]int{}
	err := ring.Range(func(k dht.Key, v any) bool {
		got[k], _ = v.(int)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRouteLengthLogarithmic(t *testing.T) {
	_, ring := buildRing(t, 32)
	ring.Hops.Reset()
	ring.Lookups.Reset()
	for i := 0; i < 500; i++ {
		if _, err := ring.Owner(dht.Key(fmt.Sprintf("probe-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mean := ring.MeanRouteLength()
	if mean <= 0 {
		t.Fatal("no hops recorded")
	}
	// log2(32) = 5; iterative Chord stays within a small multiple.
	if mean > 12 {
		t.Errorf("mean route length %.1f hops for 32 nodes; want ≲ 12", mean)
	}
}

func TestEmptyRingErrors(t *testing.T) {
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{})
	if err := ring.Put("k", 1); err == nil {
		t.Error("Put on empty ring succeeded")
	}
	if _, err := ring.Owner("k"); err == nil {
		t.Error("Owner on empty ring succeeded")
	}
}

func TestDuplicateAddNode(t *testing.T) {
	_, ring := buildRing(t, 2)
	if _, err := ring.AddNode("node-0"); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
}

func TestAutoStabilizerShutdown(t *testing.T) {
	_, ring := buildRing(t, 3)
	auto := ring.StartAutoStabilize(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	auto.Shutdown() // must not hang or panic
	if err := ring.Put("k", 1); err != nil {
		t.Fatal(err)
	}
}

func TestNeighbourPointers(t *testing.T) {
	_, ring := buildRing(t, 8)
	// Walking successors from any node must traverse the full ring.
	start := ring.Nodes()[0]
	seen := map[simnet.NodeID]bool{start: true}
	cur := start
	for i := 0; i < 8; i++ {
		succs := routing(t, ring, cur).Neighbours(dht.ID{})
		if len(succs) == 0 {
			t.Fatalf("node %q has no successor", cur)
		}
		cur = succs[0].Addr
		if cur == start {
			break
		}
		if seen[cur] {
			t.Fatalf("successor cycle revisits %q before covering ring", cur)
		}
		seen[cur] = true
	}
	if len(seen) != 8 {
		t.Errorf("successor walk covered %d of 8 nodes", len(seen))
	}
	// Predecessors must be set everywhere after stabilization.
	for _, addr := range ring.Nodes() {
		n := routing(t, ring, addr)
		n.mu.Lock()
		if n.pred.IsZero() {
			t.Errorf("node %q has no predecessor", addr)
		}
		n.mu.Unlock()
	}
}

func TestConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		_, ring := buildRing(t, 10)
		return ring
	})
}

func TestFaultTolerance(t *testing.T) {
	dhttest.RunFaultTolerance(t, func(t *testing.T) dht.DHT {
		_, ring := buildRing(t, 10)
		return ring
	})
}

// TestLookupUnderLoss runs the shared lookup-under-loss conformance case:
// seeded link loss, bounded retries, ≥90% resolution, no terminal errors.
func TestLookupUnderLoss(t *testing.T) {
	dhttest.RunLookupUnderLoss(t, func(t *testing.T, seed int64) (dht.DHT, func(float64)) {
		net := simnet.New(simnet.Options{Seed: seed})
		ring := NewRing(net, Config{Seed: seed, Replication: 3})
		for i := 0; i < 12; i++ {
			if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
				t.Fatalf("AddNode(%d): %v", i, err)
			}
		}
		ring.Stabilize(2)
		return ring, net.SetDropRate
	})
}
