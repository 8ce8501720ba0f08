package chord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/simnet"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

// fullScanClosestPreceding is Chord's closest-preceding-node scan as it was
// before the routing table: every one of the 160 fingers from the top, each
// copied, then the successor list. It is the oracle the table is held to.
func fullScanClosestPreceding(st routingState, self ref, target dht.ID) ref {
	best := self
	for i := dht.IDBits - 1; i >= 0; i-- {
		f := st.fingers[i]
		if !f.IsZero() && f.ID.BetweenOpen(self.ID, target) {
			best = f
			break
		}
	}
	for _, s := range st.succs {
		if !s.IsZero() && s.ID.BetweenOpen(best.ID, target) {
			best = s
		}
	}
	if best.Addr == self.Addr && len(st.succs) > 0 {
		return st.succs[0]
	}
	return best
}

// fullScanStep is the whole step reply of a node with routing state st as it
// was before the routing table: Done at the successor when the target lies in
// (n, succs[0]] (at n itself when the list is empty), else the full scan's
// next hop.
func fullScanStep(st routingState, self ref, target dht.ID) lookupStepResp {
	switch {
	case len(st.succs) == 0:
		return lookupStepResp{Done: true, Next: self}
	case target.Between(self.ID, st.succs[0].ID):
		return lookupStepResp{Done: true, Next: st.succs[0]}
	default:
		return lookupStepResp{Next: fullScanClosestPreceding(st, self, target)}
	}
}

// assertStep holds n's step reply towards each target to the full scan.
func assertStep(t *testing.T, n *node, targets []dht.ID, what string) {
	t.Helper()
	st := stateOf(n)
	for _, target := range targets {
		want := fullScanStep(st, n.Ref(), target)
		got, _ := n.handleLookupStep(target).(lookupStepResp)
		if got != want {
			t.Fatalf("%s: %s towards %x: step %+v, full scan %+v", what, n.Addr(), target[:], got, want)
		}
	}
}

// jumpTargets are the targets a step is checked on from node n:
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

// assertJumpMatchesFullScan holds the step reply, Done and Next, to the full
// scan on every live node of ring, and every finger to the bound fixFingers
// keeps: finger i is zero, the node itself, or at least 2^i past it.
func assertJumpMatchesFullScan(t *testing.T, rng *rand.Rand, ring *Ring, what string) {
	t.Helper()
	for _, addr := range ring.Nodes() {
		n := routing(t, ring, addr)
		for i, f := range stateOf(n).fingers {
			if !f.IsZero() && f.ID.BetweenOpen(n.ID(), n.ID().AddPowerOfTwo(i)) {
				t.Fatalf("%s: %s finger[%d] = %s lies short of its start", what, addr, i, f.Addr)
			}
		}
		assertStep(t, n, jumpTargets(rng, ring, n), what)
	}
}

// TestFingerJumpMatchesFullScan: a step's reply from the routing table — Done
// and the next hop — is the one Chord's full scan of all 160 fingers and the
// successor list gives, on rings built by joins (before and after
// stabilizing), by AddNodesBulk, and after every event of
// TestFixpointAfterChurn's seeded churn, at 4, 16 and 128 peers.
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
// averaged over keys at every route length: 3, none of them in a step, whose
// reply was boxed when the routing table was written (7 while each step boxed
// its own).
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
	if allocs > 3 && !dhttest.RaceEnabled() {
		t.Errorf("%.1f allocs per routed Get, want <= 3", allocs)
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

// recordRoute returns the nodes a route from entry towards target asks, in
// order, read off their routing tables.
func recordRoute(t *testing.T, ring *Ring, entry ref, target dht.ID) []ref {
	t.Helper()
	path := []ref{entry}
	for {
		resp := routing(t, ring, path[len(path)-1].Addr).handleLookupStep(target).(lookupStepResp)
		if resp.Done {
			return path
		}
		path = append(path, resp.Next)
	}
}

// TestRouteDetour crashes each hop after the entry of recorded routes, one
// at a time on a fresh ring, and routes again with no round run: the
// kernel's loop goes around the dead hop (overlay.Route) and answers the
// owner a stabilized ring answers, asking the dead hop once however often
// a later step names it. On a ring of settled successor lists every such
// route succeeds. When the dead hop is the one whose step
// answered, listed by the node before it ahead of another successor, the
// route costs exactly one detour and two RPCs more than the clean route:
// the failed step, the successor list and the predecessor read that
// confirms the owner, in place of the dead hop's step. On a ring still
// settling after joins a detour may fail, but it never answers another
// owner: a successor list misses the peers that joined since its last
// stabilize, and the confirming walk back along predecessor pointers finds
// them.
func TestRouteDetour(t *testing.T) {
	const peers, keys = 32, 24
	addrs := make([]simnet.NodeID, peers)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	bulk := func() *Ring {
		ring := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
		if _, err := AddNodesBulk(ring, addrs); err != nil {
			t.Fatal(err)
		}
		return ring
	}
	joined := func() *Ring {
		_, ring := buildRing(t, peers)
		return ring
	}
	for _, c := range []struct {
		name    string
		build   func() *Ring
		settled bool
	}{{"settled", bulk, true}, {"settling", joined, false}} {
		t.Run(c.name, func(t *testing.T) {
			pinned, failed := 0, 0
			for i := range keys {
				target := dht.HashKey(dht.Key(fmt.Sprintf("detour-%d", i)))
				ring := c.build()
				entry := routing(t, ring, "node-0").Ref()
				path := recordRoute(t, ring, entry, target)
				for j := 1; j < len(path); j++ {
					ring := c.build()
					prevSuccs := stateOf(routing(t, ring, path[j-1].Addr)).succs
					if err := ring.CrashNode(path[j].Addr); err != nil {
						t.Fatal(err)
					}
					tr := trace.NewCollector()
					ring.Net().(*simnet.Network).SetTracer(tr)
					hops, detours := ring.Hops.Load(), ring.Detours.Load()
					owner, err := ring.Router().Route(entry, target)
					hops, detours = ring.Hops.Load()-hops, ring.Detours.Load()-detours
					ring.Net().(*simnet.Network).SetTracer(nil)
					asked := 0
					for _, sp := range tr.Spans() {
						if strings.HasSuffix(sp.Name, "→"+string(path[j].Addr)) {
							asked++
						}
					}
					if asked != 1 {
						t.Errorf("key %d: the dead hop %s was asked %d times, want once", i, path[j].Addr, asked)
					}
					ring.Stabilize(3)
					want, werr := ring.Router().Route(entry, target)
					if werr != nil {
						t.Fatalf("key %d: route after stabilizing: %v", i, werr)
					}
					what := fmt.Sprintf("key %d, route %d hops, %s crashed", i, len(path), path[j].Addr)
					switch {
					case err != nil && c.settled:
						t.Errorf("%s: %v", what, err)
					case err != nil:
						failed++
					case owner != want:
						t.Errorf("%s: route answered %s, a stabilized ring %s", what, owner.Addr, want.Addr)
					case detours == 0:
						t.Errorf("%s: no detour counted", what)
					}
					if k := slices.Index(prevSuccs, path[j]); c.settled && j == len(path)-1 && k >= 0 && k+1 < len(prevSuccs) {
						pinned++
						if detours != 1 || hops != int64(len(path))+2 {
							t.Errorf("%s: %d detours and %d hops, want 1 and the clean route's %d + 2",
								what, detours, hops, len(path))
						}
					}
				}
			}
			if c.settled && pinned == 0 {
				t.Fatal("no route's answering hop was listed by the node before it")
			}
			t.Logf("%d routes pinned at one detour and two RPCs more, %d failed", pinned, failed)
		})
	}
}

// TestRouteDetourNeverAnswersAnotherOwner: a detour fails rather than
// answer a node that is not the key's owner. Two cases on the rings of
// TestRouteDetour, with no round run: the hop whose step answered crashes
// together with the owner it names — the next live successor holds no
// promoted copy yet, so on a settled ring every such route must fail — and
// one hop of the route crashes while a quarter of all messages are lost, so
// that steps to live peers and the predecessor reads confirming an owner go
// missing. Either route answers the owner the ring had before the crash, or
// fails.
func TestRouteDetourNeverAnswersAnotherOwner(t *testing.T) {
	const peers, keys = 32, 24
	addrs := make([]simnet.NodeID, peers)
	for i := range addrs {
		addrs[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	// The seed draws which messages are lost.
	bulk := func(seed int64) *Ring {
		ring := NewRing(simnet.New(simnet.Options{Seed: seed}), Config{Seed: 1})
		if _, err := AddNodesBulk(ring, addrs); err != nil {
			t.Fatal(err)
		}
		return ring
	}
	joined := func(seed int64) *Ring {
		ring := NewRing(simnet.New(simnet.Options{Seed: seed}), Config{Seed: 1})
		for _, addr := range addrs {
			if _, err := ring.AddNode(addr); err != nil {
				t.Fatal(err)
			}
		}
		ring.Stabilize(2)
		return ring
	}
	for _, c := range []struct {
		name    string
		build   func(seed int64) *Ring
		settled bool
	}{{"settled", bulk, true}, {"settling", joined, false}} {
		t.Run(c.name, func(t *testing.T) {
			answered, failed, withOwner := 0, 0, 0
			route := func(ring *Ring, entry ref, key dht.Key, owner simnet.NodeID, what string) error {
				got, err := ring.Router().Route(entry, dht.HashKey(key))
				switch {
				case err != nil:
					failed++
				case got.Addr != owner:
					t.Errorf("%s: route answered %s, the owner was %s", what, got.Addr, owner)
				default:
					answered++
				}
				return err
			}
			for i := range keys {
				key := dht.Key(fmt.Sprintf("detour-%d", i))
				target := dht.HashKey(key)
				ring := c.build(0)
				entry := routing(t, ring, "node-0").Ref()
				path := recordRoute(t, ring, entry, target)
				for j := 1; j < len(path); j++ {
					what := fmt.Sprintf("key %d, route %d hops, %s crashed", i, len(path), path[j].Addr)
					ring := c.build(int64(i*peers + j))
					owner := oracleOwner(ring, key)
					if err := ring.CrashNode(path[j].Addr); err != nil {
						t.Fatal(err)
					}
					ring.Net().(*simnet.Network).SetDropRate(0.25)
					route(ring, entry, key, owner, what+" under loss")

					if j < len(path)-1 {
						continue
					}
					ring = c.build(0)
					named := routing(t, ring, path[j].Addr).handleLookupStep(target).(lookupStepResp).Next
					for _, addr := range []simnet.NodeID{path[j].Addr, named.Addr} {
						if err := ring.CrashNode(addr); err != nil {
							t.Fatal(err)
						}
					}
					withOwner++
					err := route(ring, entry, key, owner, what+" with "+string(named.Addr))
					if err == nil && c.settled {
						t.Errorf("%s with the owner %s: the route answered", what, named.Addr)
					}
				}
			}
			if withOwner == 0 || failed == 0 || answered == 0 {
				t.Fatalf("%d routes answered, %d failed, %d with the owner crashed: want some of each", answered, failed, withOwner)
			}
			t.Logf("%d routes answered the owner, %d failed (%d with the owner crashed)", answered, failed, withOwner)
		})
	}
}

// minus returns id − k around the ring.
func minus(id dht.ID, k int) dht.ID {
	var d dht.ID
	binary.BigEndian.PutUint32(d[len(d)-4:], uint32(k))
	return id.Sub(d)
}

// TestRouteRefusesHostileSteps: the kernel's loop refuses a step reply of
// another type, one that names the node asked, one whose next hop lies
// outside (cur, target) — past the target or behind the node asked — and,
// at the hop bound, a cycle between two nodes that keeps the progress rule
// by lying about identifiers.
func TestRouteRefusesHostileSteps(t *testing.T) {
	target := dht.HashString("hostile-target")
	entry := ref{Addr: "evil-0", ID: minus(target, 1000)}
	for _, c := range []struct {
		name, want string
		reply      func(calls int) any
	}{
		{"wrong type", "bad response", func(int) any { return "no step" }},
		{"names the node asked", "stalled", func(int) any {
			return lookupStepResp{Next: ref{Addr: "evil-0", ID: minus(target, 10)}}
		}},
		{"past the target", "outside", func(int) any {
			return lookupStepResp{Next: ref{Addr: "evil-1", ID: target.AddPowerOfTwo(0)}}
		}},
		{"behind the node asked", "outside", func(int) any {
			return lookupStepResp{Next: ref{Addr: "evil-1", ID: minus(target, 2000)}}
		}},
		{"cycle", "exceeded 512 hops", func(calls int) any {
			return lookupStepResp{Next: ref{Addr: simnet.NodeID(fmt.Sprintf("evil-%d", (calls+1)%2)), ID: minus(target, 999-calls)}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := simnet.New(simnet.Options{})
			ring := NewRing(net, Config{Seed: 1})
			calls := 0
			for _, addr := range []simnet.NodeID{"evil-0", "evil-1"} {
				if err := net.Register(addr, transport.HandlerFunc(func(transport.NodeID, any) (any, error) {
					calls++
					return c.reply(calls - 1), nil
				})); err != nil {
					t.Fatal(err)
				}
			}
			owner, err := ring.Router().Route(entry, target)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("route = %v, %v; want an error saying %q", owner, err, c.want)
			}
			if int64(calls) != ring.Hops.Load() {
				t.Errorf("%d steps sent, %d hops counted", calls, ring.Hops.Load())
			}
		})
	}
}
