package chord

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/simnet"
)

// fullScanClosestPreceding is closestPrecedingLocked as it was before the
// finger jump: every one of the 160 fingers from the top, each copied. It is
// the oracle the jump is held to.
func fullScanClosestPreceding(n *node, target dht.ID) ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := n.Ref()
	for i := dht.IDBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.IsZero() && f.ID.BetweenOpen(n.ID(), target) {
			best = f
			break
		}
	}
	for _, s := range n.succs {
		if !s.IsZero() && s.ID.BetweenOpen(best.ID, target) {
			best = s
		}
	}
	if best.Addr == n.Addr() && len(n.succs) > 0 {
		return n.succs[0]
	}
	return best
}

// jumpTargets are the targets the finger jump is checked on from node n:
// random identifiers, and every identifier n's tables name (its own, its
// predecessor's, its successors' and fingers') and a few other peers', each
// exactly and one either side; then the ends of the identifier space and the
// point just behind n, whose intervals from n cross the wrap.
func jumpTargets(rng *rand.Rand, ring *Ring, n *node) []dht.ID {
	one := dht.ID{}.AddPowerOfTwo(0)
	var top dht.ID
	for i := range top {
		top[i] = 0xff
	}
	st := stateOf(n)
	named := []dht.ID{n.ID(), st.pred.ID}
	for _, s := range st.succs {
		named = append(named, s.ID)
	}
	for i, f := range st.fingers {
		if !f.IsZero() && (i == 0 || f != st.fingers[i-1]) {
			named = append(named, f.ID)
		}
	}
	peers := ring.Nodes()
	for range 8 {
		named = append(named, dht.HashString(string(peers[rng.Intn(len(peers))])))
	}
	out := []dht.ID{{}, top, n.ID().Sub(one), n.ID().AddPowerOfTwo(dht.IDBits - 1)}
	for _, id := range named {
		out = append(out, id, id.AddPowerOfTwo(0), id.Sub(one))
	}
	for range 16 {
		var id dht.ID
		rng.Read(id[:])
		out = append(out, id)
	}
	return out
}

// assertJumpMatchesFullScan holds closestPrecedingLocked to the full scan on
// every live node of ring, and every finger to the bound the jump relies on:
// finger i is zero, the node itself, or at least 2^i past it.
func assertJumpMatchesFullScan(t *testing.T, rng *rand.Rand, ring *Ring, what string) {
	t.Helper()
	for _, addr := range ring.Nodes() {
		n := routing(t, ring, addr)
		for i, f := range stateOf(n).fingers {
			if !f.IsZero() && f.ID.BetweenOpen(n.ID(), n.ID().AddPowerOfTwo(i)) {
				t.Fatalf("%s: %s finger[%d] = %s lies short of its start", what, addr, i, f.Addr)
			}
		}
		for _, target := range jumpTargets(rng, ring, n) {
			want := fullScanClosestPreceding(n, target)
			n.mu.Lock()
			got := n.closestPrecedingLocked(target)
			n.mu.Unlock()
			if got != want {
				t.Fatalf("%s: %s towards %x: finger jump %s, full scan %s", what, addr, target[:], got.Addr, want.Addr)
			}
		}
	}
}

// TestFingerJumpMatchesFullScan: starting the finger scan at the top bit of
// the distance to the target picks the same next hop as scanning all 160
// fingers, on rings built by joins (before and after stabilizing), by
// AddNodesBulk, and after every event of TestFixpointAfterChurn's seeded
// churn, at 4, 16 and 128 peers.
func TestFingerJumpMatchesFullScan(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	for _, size := range []int{4, 16, 128} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			addrs := make([]simnet.NodeID, size)
			for i := range addrs {
				addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
			}

			bulk := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
			if _, err := AddNodesBulk(bulk, addrs); err != nil {
				t.Fatal(err)
			}
			assertJumpMatchesFullScan(t, rng, bulk, "bulk")

			ring := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
			for _, addr := range addrs {
				if _, err := ring.AddNode(addr); err != nil {
					t.Fatal(err)
				}
			}
			assertJumpMatchesFullScan(t, rng, ring, "joins")
			ring.Stabilize(2)
			assertJumpMatchesFullScan(t, rng, ring, "joins + Stabilize(2)")

			event := 0
			churnRing(t, ring, seed, func() {
				event++
				assertJumpMatchesFullScan(t, rng, ring, fmt.Sprintf("seed %d churn event %d", seed, event))
			})
			ring.Stabilize(2)
			assertJumpMatchesFullScan(t, rng, ring, "churn + Stabilize(2)")
		})
	}
}

// TestDeadOwnerIsAnError: a route's answer is not pinged, so with a key's
// owner crashed and no stabilize round run since, the route still answers
// the dead owner. The store-plane call to it must then fail with the
// network's transient unreachable error, which a retry layer retries —
// never return a wrong value or "not found". After stabilization the
// replica that took over serves every key again.
func TestDeadOwnerIsAnError(t *testing.T) {
	ring := buildReplicatedRing(t, 12, 3)
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := ring.Put(dht.Key(fmt.Sprintf("dk%d", i)), i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(1)
	victim := oracleOwner(ring, "dk0")
	owned := map[dht.Key]bool{}
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("dk%d", i))
		owned[k] = oracleOwner(ring, k) == victim
	}
	if err := ring.CrashNode(victim); err != nil {
		t.Fatal(err)
	}

	failed := 0
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("dk%d", i))
		v, ok, err := ring.Get(k)
		switch {
		case owned[k]:
			if !errors.Is(err, simnet.ErrUnreachable) || !dht.DefaultClassify(err) {
				t.Fatalf("Get(%q) with its owner %s crashed = %v, %v, %v; want a retryable %v",
					k, victim, v, ok, err, simnet.ErrUnreachable)
			}
			failed++
		case err != nil:
			// A route through the dead peer fails; that is an error too.
			if !dht.DefaultClassify(err) {
				t.Fatalf("Get(%q) = %v; want a retryable error or the value", k, err)
			}
		case !ok || v != i:
			t.Fatalf("Get(%q) after %s crashed = %v, %v; want %d", k, victim, v, ok, i)
		}
	}
	if failed == 0 {
		t.Fatalf("%s owned none of the %d keys", victim, keys)
	}

	ring.Stabilize(1)
	for i := 0; i < keys; i++ {
		k := dht.Key(fmt.Sprintf("dk%d", i))
		if v, ok, err := ring.Get(k); err != nil || !ok || v != i {
			t.Fatalf("after Stabilize Get(%q) = %v, %v, %v; want %d", k, v, ok, err, i)
		}
	}
}

// routeRing is a 128-peer ring holding keys route-0 … route-63, each read
// by one routed Get.
func routeRing(tb testing.TB) (*Ring, []dht.Key) {
	tb.Helper()
	ring := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
	addrs := make([]simnet.NodeID, 128)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	if _, err := AddNodesBulk(ring, addrs); err != nil {
		tb.Fatal(err)
	}
	keys := make([]dht.Key, 64)
	for i := range keys {
		keys[i] = dht.Key(fmt.Sprintf("route-%d", i))
		if err := ring.Put(keys[i], i); err != nil {
			tb.Fatal(err)
		}
	}
	return ring, keys
}

// TestRouteAllocs pins what a routed Get allocates on a 128-peer ring,
// averaged over keys at every route length.
func TestRouteAllocs(t *testing.T) {
	ring, keys := routeRing(t)
	i := 0
	allocs := testing.AllocsPerRun(len(keys)*8, func() {
		if _, _, err := ring.Get(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("routed Get on 128 peers: %.1f allocs, %.2f steps a route", allocs, ring.MeanRouteLength())
	if allocs > 7 && !dhttest.RaceEnabled() {
		t.Errorf("%.1f allocs per routed Get, want <= 7", allocs)
	}
}

// BenchmarkRoute is one routed Get on a 128-peer simnet ring.
func BenchmarkRoute(b *testing.B) {
	ring, keys := routeRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
