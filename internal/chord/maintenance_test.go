package chord

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

// maintenanceCost is what ring upkeep sends on simnet: RPCs attempted and
// iterative lookup steps (the ring's Hops counter).
type maintenanceCost struct{ rpcs, steps int64 }

// measureMaintenance builds an n-node ring by AddNode and Stabilize(2), then
// runs one more Stabilize(1) on the converged ring, and reports the cost of
// each phase.
func measureMaintenance(t *testing.T, n int) (build, round maintenanceCost) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	ring := NewRing(net, Config{Seed: 1})
	for i := 0; i < n; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	ring.Stabilize(2)
	build = maintenanceCost{net.RPCs.Load(), ring.Hops.Load()}
	ring.Stabilize(1)
	round = maintenanceCost{net.RPCs.Load() - build.rpcs, ring.Hops.Load() - build.steps}
	return build, round
}

// TestMaintenanceRPCBudget pins, exactly, what building a ring and one
// stabilize round on it cost. fixFingers routes a finger only when the
// finger before it does not already answer its start, so a round routes
// about one target per distinct finger rather than all 160; a count that
// moves means the reuse rule or the routing under it changed.
func TestMaintenanceRPCBudget(t *testing.T) {
	for _, tc := range []struct {
		n            int
		build, round maintenanceCost
	}{
		// Routing every finger start instead cost 3938/1945 and 1316/648
		// at n = 4, 15996/7950 and 5345/2641 at n = 16, and 132343/67848
		// and 44210/22578 at n = 128.
		{4, maintenanceCost{114, 44}, maintenanceCost{42, 14}},
		{16, maintenanceCost{764, 413}, maintenanceCost{277, 133}},
		{128, maintenanceCost{11448, 8520}, maintenanceCost{4010, 2858}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			build, round := measureMaintenance(t, tc.n)
			if build != tc.build {
				t.Errorf("joins + Stabilize(2): %d RPCs, %d lookup steps; want %d, %d",
					build.rpcs, build.steps, tc.build.rpcs, tc.build.steps)
			}
			if round != tc.round {
				t.Errorf("one Stabilize(1): %d RPCs, %d lookup steps; want %d, %d",
					round.rpcs, round.steps, tc.round.rpcs, tc.round.steps)
			}
		})
	}
}

// routingState is one node's routing tables, copied under its lock.
type routingState struct {
	pred    ref
	succs   []ref
	fingers [dht.IDBits]ref
}

func stateOf(n *node) routingState {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := routingState{pred: n.pred, succs: append([]ref(nil), n.succs...)}
	for i := range st.fingers {
		st.fingers[i] = n.tab.fingers[n.tab.spanAt(i)].ref()
	}
	return st
}

func (s routingState) equal(o routingState) bool {
	return s.pred == o.pred && slices.Equal(s.succs, o.succs) && s.fingers == o.fingers
}

// diff names the first entry where s departs from want.
func (s routingState) diff(want routingState) string {
	switch {
	case s.pred != want.pred:
		return fmt.Sprintf("pred %q, want %q", s.pred.Addr, want.pred.Addr)
	case !slices.Equal(s.succs, want.succs):
		return fmt.Sprintf("successors %v, want %v", s.succs, want.succs)
	}
	for i := range s.fingers {
		if s.fingers[i] != want.fingers[i] {
			return fmt.Sprintf("finger[%d] %q, want %q", i, s.fingers[i].Addr, want.fingers[i].Addr)
		}
	}
	return ""
}

// ringState snapshots every live node's routing tables.
func ringState(t *testing.T, ring *Ring) map[simnet.NodeID]routingState {
	t.Helper()
	out := make(map[simnet.NodeID]routingState)
	for _, addr := range ring.Nodes() {
		out[addr] = stateOf(routing(t, ring, addr))
	}
	return out
}

// assertBulkFixpoint checks that every live node of ring holds exactly the
// tables AddNodesBulk wires for the same membership.
func assertBulkFixpoint(t *testing.T, ring *Ring) {
	t.Helper()
	members := ring.Nodes()
	bulk := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
	if _, err := AddNodesBulk(bulk, members); err != nil {
		t.Fatal(err)
	}
	for _, addr := range members {
		if d := stateOf(routing(t, ring, addr)).diff(stateOf(routing(t, bulk, addr))); d != "" {
			t.Errorf("%s: %s", addr, d)
		}
	}
}

// retryAfterRound runs the join or restart of addr; one that fails is
// retried once after a stabilize round, as the kernel's lookup errors
// prescribe. It may fail when addr's successor-to-be crashed since the last
// round: the join's route answers that dead owner, or fails rather than
// guess which live peer owns addr's identifier now. A route may not fail it
// otherwise: a dead hop on the way costs a detour (overlay.Route), and an
// unreachable old predecessor is left to stabilization.
func retryAfterRound(t *testing.T, ring *Ring, addr simnet.NodeID, what string, join func() error) {
	t.Helper()
	err := join()
	if err == nil {
		return
	}
	if errors.Is(err, overlay.ErrLookupFailed) && !successorCrashed(ring, addr) {
		t.Fatalf("%s: the route failed: %v", what, err)
	}
	t.Logf("%s: %v; retrying after one round", what, err)
	ring.Stabilize(1)
	if err := join(); err != nil {
		t.Fatalf("%s after a round: %v", what, err)
	}
}

// successorCrashed reports whether the first peer after addr's identifier,
// among the live and the crashed, is a crashed one.
func successorCrashed(ring *Ring, addr simnet.NodeID) bool {
	id := dht.HashString(string(addr))
	var succ simnet.NodeID
	var best dht.ID
	for _, a := range append(ring.Nodes(), ring.CrashedNodes()...) {
		if d := dht.HashString(string(a)).Sub(id); a != addr && (succ == "" || d.Cmp(best) < 0) {
			succ, best = a, d
		}
	}
	return slices.Contains(ring.CrashedNodes(), succ)
}

// TestFixpointAfterChurn: after crashes, graceful leaves, restarts and
// joins, stabilization settles on exactly the routing state AddNodesBulk
// wires for the survivors — the reuse rule in fixFingers does not change
// the fixpoint. MLIGHT_TEST_SEED draws the churn schedule (churnRing).
func TestFixpointAfterChurn(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	_, ring := buildRing(t, 24)
	churnRing(t, ring, seed, func() {})

	const maxRounds = 40
	prev, quiet := ringState(t, ring), 0
	for round := 1; quiet < 2; round++ {
		if round > maxRounds {
			t.Fatalf("seed %d: routing state still changing after %d rounds", seed, maxRounds)
		}
		ring.Stabilize(1)
		cur := ringState(t, ring)
		if maps.EqualFunc(prev, cur, routingState.equal) {
			quiet++
		} else {
			quiet = 0
		}
		prev = cur
	}
	assertBulkFixpoint(t, ring)
}

// churnRing runs sixteen seeded churn events on ring — crashes, graceful
// leaves, restarts and joins — and calls each after every event, before the
// stabilize rounds that follow it. Each event is followed by zero or one
// rounds, except that a round is forced once SuccessorListLen-1 peers have
// crashed or left since the last one: a successor list of r entries is
// Chord's tolerance for r-1 failures between rounds, no more. Crashes and
// leaves need more than twelve live peers.
func churnRing(t *testing.T, ring *Ring, seed int64, each func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	joined, gone := len(ring.Nodes()), 0
	for step := 0; step < 16; step++ {
		live, crashed := ring.Nodes(), ring.CrashedNodes()
		pick := live[rng.Intn(len(live))]
		switch ev := rng.Intn(4); {
		case ev == 0 && len(crashed) < 3 && len(live) > 12:
			if err := ring.CrashNode(pick); err != nil {
				t.Fatalf("seed %d: crash %s: %v", seed, pick, err)
			}
			gone++
		case ev == 1 && len(live) > 12:
			if err := ring.RemoveNode(pick); err != nil {
				t.Fatalf("seed %d: leave %s: %v", seed, pick, err)
			}
			gone++
		case ev == 2 && len(crashed) > 0:
			back := crashed[rng.Intn(len(crashed))]
			retryAfterRound(t, ring, back, fmt.Sprintf("seed %d: restart %s", seed, back), func() error {
				_, err := ring.RestartNode(back)
				return err
			})
		default:
			addr := simnet.NodeID(fmt.Sprintf("node-%d", joined))
			joined++
			retryAfterRound(t, ring, addr, fmt.Sprintf("seed %d: join %s", seed, addr), func() error {
				_, err := ring.AddNode(addr)
				return err
			})
		}
		each()
		rounds := rng.Intn(2)
		if gone == SuccessorListLen-1 {
			rounds = 1
		}
		if rounds > 0 {
			gone = 0
		}
		ring.Stabilize(rounds)
	}
}

// TestFixFingersSingleNode: a lone node owns the whole ring, so every finger
// is the node itself, and one route (finger 0) answers all 160.
func TestFixFingersSingleNode(t *testing.T) {
	_, ring := buildRing(t, 1)
	before := ring.Hops.Load()
	ring.Stabilize(1)
	if steps := ring.Hops.Load() - before; steps != 1 {
		t.Errorf("one round on a single node took %d lookup steps, want 1", steps)
	}
	n := routing(t, ring, "node-0")
	for i, f := range stateOf(n).fingers {
		if f != n.Ref() {
			t.Fatalf("finger[%d] = %q, want the node itself", i, f.Addr)
		}
	}
}

// TestFixFingersTwoNodes: each node's fingers are the other node for the
// starts up to the other's identifier and the node itself past it. node-1
// lies more than half the ring past node-0, so node-0's every finger is
// node-1 (one route, one step); node-1 routes its finger 0 (one step) and
// the first start past node-0 (two steps, through node-0).
func TestFixFingersTwoNodes(t *testing.T) {
	_, ring := buildRing(t, 2)
	bulk := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
	if _, err := AddNodesBulk(bulk, ring.Nodes()); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for _, addr := range ring.Nodes() {
			got, want := stateOf(routing(t, ring, addr)), stateOf(routing(t, bulk, addr))
			// The bulk wiring lists the node itself as its second
			// successor; a join lists only the other node.
			got.succs, want.succs = nil, nil
			if d := got.diff(want); d != "" {
				t.Errorf("%s: %s", addr, d)
			}
		}
	}
	check()
	before := ring.Hops.Load()
	ring.Stabilize(1)
	if steps := ring.Hops.Load() - before; steps != 4 {
		t.Errorf("one round on two nodes took %d lookup steps, want 4", steps)
	}
	check()
}

// failingSteps is a network on which lookup steps towards one target fail;
// it records every target a lookup step was sent for.
type failingSteps struct {
	*simnet.Network
	mu      sync.Mutex
	fail    dht.ID
	armed   bool
	targets []dht.ID
}

var errStepFailed = errors.New("injected lookup-step failure")

func (f *failingSteps) Call(from, to simnet.NodeID, req any) (any, error) {
	if step, ok := req.(lookupStepReq); ok {
		f.mu.Lock()
		f.targets = append(f.targets, step.Target)
		fail := f.armed && step.Target == f.fail
		f.mu.Unlock()
		if fail {
			return nil, errStepFailed
		}
	}
	return f.Network.Call(from, to, req)
}

// TestFixFingersFailedRouteIsNotCopied: when finger 0's route fails, finger
// 0 is cleared and finger 1 is routed — not copied from the zero finger —
// so finger 1 onwards still hold the fixpoint.
func TestFixFingersFailedRouteIsNotCopied(t *testing.T) {
	net := &failingSteps{Network: simnet.New(simnet.Options{})}
	ring := NewRing(net, Config{Seed: 1})
	for i := 0; i < 8; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	assertBulkFixpoint(t, ring)

	n := routing(t, ring, "node-3")
	want := stateOf(n).fingers
	start0, start1 := n.ID().AddPowerOfTwo(0), n.ID().AddPowerOfTwo(1)
	net.mu.Lock()
	net.fail, net.armed, net.targets = start0, true, nil
	net.mu.Unlock()
	ring.Router().(*router).fixFingers(n)

	got := stateOf(n).fingers
	if !got[0].IsZero() {
		t.Errorf("finger[0] = %q after its route failed, want cleared", got[0].Addr)
	}
	net.mu.Lock()
	routed1 := slices.Contains(net.targets, start1)
	net.mu.Unlock()
	if !routed1 {
		t.Error("finger[1] was not routed after finger[0]'s route failed")
	}
	for i := 1; i < dht.IDBits; i++ {
		if got[i] != want[i] {
			t.Fatalf("finger[%d] = %q, want %q", i, got[i].Addr, want[i].Addr)
		}
	}
}

// shortAnswers is a network on which a route towards one target is answered
// at its first step with a node short of that target.
type shortAnswers struct {
	*simnet.Network
	target dht.ID
	answer ref
}

func (s *shortAnswers) Call(from, to simnet.NodeID, req any) (any, error) {
	if step, ok := req.(lookupStepReq); ok && step.Target == s.target {
		return lookupStepResp{Done: true, Next: s.answer}, nil
	}
	return s.Network.Call(from, to, req)
}

// TestFixFingersShortAnswerIsNotKept: a route that answers a finger's start
// with a node between n and the start — one no consistent ring gives — is
// treated as a failed route, so every finger stays zero, n, or at least 2^i
// past n: a node short of the start cannot own it.
func TestFixFingersShortAnswerIsNotKept(t *testing.T) {
	net := &shortAnswers{Network: simnet.New(simnet.Options{})}
	ring := NewRing(net, Config{Seed: 1})
	for i := 0; i < 8; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	n := routing(t, ring, "node-3")
	st := stateOf(n)
	// Finger i is the first whose start lies past the successor, which then
	// lies short of that start.
	i := slices.IndexFunc(st.fingers[:], func(f ref) bool { return f != st.succs[0] })
	net.target, net.answer = n.ID().AddPowerOfTwo(i), st.succs[0]
	ring.Router().(*router).fixFingers(n)

	got := stateOf(n).fingers
	if !got[i].IsZero() {
		t.Errorf("finger[%d] = %q, short of its start; want cleared", i, got[i].Addr)
	}
	for j := i + 1; j < dht.IDBits; j++ {
		if got[j] != st.fingers[j] {
			t.Fatalf("finger[%d] = %q, want %q", j, got[j].Addr, st.fingers[j].Addr)
		}
	}
}

// TestFastRestartRejoins: a node restarted before any stabilize round finds
// its own identifier routed back to it, because its predecessor still lists
// the crashed incarnation. It must link behind that predecessor, not as a
// singleton, and the ring must settle on the bulk wiring. In the second
// case the predecessor left gracefully after the crash, so the peer before
// it lists the restarted node twice.
func TestFastRestartRejoins(t *testing.T) {
	for _, predLeaves := range []bool{false, true} {
		t.Run(fmt.Sprintf("predecessor-leaves=%v", predLeaves), func(t *testing.T) {
			_, ring := buildRing(t, 12)
			const victim = "node-5"
			pred := stateOf(routing(t, ring, victim)).pred.Addr
			if err := ring.CrashNode(victim); err != nil {
				t.Fatal(err)
			}
			if predLeaves {
				if err := ring.RemoveNode(pred); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ring.RestartNode(victim); err != nil {
				t.Fatal(err)
			}
			if succ := stateOf(routing(t, ring, victim)).succs[0]; succ.Addr == victim {
				t.Fatalf("restarted %s lists itself as its successor", victim)
			}
			ring.Stabilize(2)
			assertBulkFixpoint(t, ring)
		})
	}
}

// TestLeaveRelinksPredecessorFully: a graceful leave hands the predecessor
// the leaver's successor. Before any stabilize round the predecessor must
// list as many distinct successors as before — the survivors' bulk wiring —
// not the new successor twice and one fewer.
func TestLeaveRelinksPredecessorFully(t *testing.T) {
	_, ring := buildRing(t, 12)
	const leaver = "node-5"
	pred := stateOf(routing(t, ring, leaver)).pred.Addr
	if err := ring.RemoveNode(leaver); err != nil {
		t.Fatal(err)
	}
	bulk := NewRing(simnet.New(simnet.Options{}), Config{Seed: 1})
	if _, err := AddNodesBulk(bulk, ring.Nodes()); err != nil {
		t.Fatal(err)
	}
	got, want := stateOf(routing(t, ring, pred)).succs, stateOf(routing(t, bulk, pred)).succs
	if len(want) != SuccessorListLen || !slices.Equal(got, want) {
		t.Fatalf("%s after %s left lists %v; want %v", pred, leaver, addrsOf(got), addrsOf(want))
	}
}

func addrsOf(refs []ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = string(r.Addr)
	}
	return out
}

// TestLoneNodeRejoinsThroughPredecessor: a node whose successor list holds
// only itself — every successor died and the fallback entry was the node
// itself, as on a daemon hosting one node — while its predecessor is live
// must not stay a singleton. One stabilize of that node must restore a full
// list of distinct live successors headed by its true successor, and one
// more round the bulk wiring.
func TestLoneNodeRejoinsThroughPredecessor(t *testing.T) {
	_, ring := buildRing(t, 12)
	const lone = "node-5"
	n := routing(t, ring, lone)
	want := stateOf(n).succs
	n.mu.Lock()
	n.setSuccsLocked([]ref{n.Ref()})
	n.mu.Unlock()
	ring.Router().(*router).stabilizeNode(n)
	got := stateOf(n).succs
	seen := map[simnet.NodeID]bool{lone: true}
	for _, s := range got {
		if seen[s.Addr] {
			t.Fatalf("%s lists %v after one stabilize: %s twice", lone, addrsOf(got), s.Addr)
		}
		seen[s.Addr] = true
	}
	if len(got) != SuccessorListLen || got[0] != want[0] {
		t.Fatalf("%s lists %v after one stabilize; want %d successors headed by %s", lone, addrsOf(got), SuccessorListLen, want[0].Addr)
	}
	ring.Stabilize(1)
	assertBulkFixpoint(t, ring)
}
