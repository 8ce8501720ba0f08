package dhttest

import (
	"fmt"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// OverlayFixture describes one routing protocol on one transport to the
// overlay suites. Everything the suites drive — joins, leaves, crashes,
// restarts, maintenance, the store — is the overlay kernel's, so one
// fixture per protocol is all that distinguishes the runs.
type OverlayFixture struct {
	// New builds an empty overlay on a fresh transport. addr mints the
	// address of the i-th node (a label on simnet, a reserved port on TCP).
	// setDropRate injects link loss; it is nil where the transport cannot
	// (real sockets), and the loss cases are skipped there.
	New func(t *testing.T, cfg overlay.Config) (o *overlay.Overlay, addr func(i int) transport.NodeID, setDropRate func(float64))
	// Dial builds a client-mode overlay of the same protocol on net, the
	// transport of an overlay New built (or a wrapper around it): no node of
	// its own, cfg.Seeds naming members of that overlay.
	Dial func(t *testing.T, net transport.Interface, cfg overlay.Config) *overlay.Overlay
	// TickError is a substring of the error a lossy maintenance round
	// records: the routing message that round cannot afford to lose.
	TickError string
	// UnlinkError is a substring of the error a leaving node records when a
	// departure notice is lost; empty for a protocol that sends none.
	UnlinkError string
}

// cluster is an overlay under test plus the addresses of its nodes in join
// order.
type cluster struct {
	*overlay.Overlay
	addrs       []transport.NodeID
	mint        func(i int) transport.NodeID
	setDropRate func(float64)
}

// build creates an n-node, stabilized overlay.
func (f OverlayFixture) build(t *testing.T, n int, cfg overlay.Config) *cluster {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &cluster{}
	c.Overlay, c.mint, c.setDropRate = f.New(t, cfg)
	for i := 0; i < n; i++ {
		c.join(t)
	}
	c.Stabilize(2)
	return c
}

// add joins one more node under the next minted address.
func (c *cluster) add() (*overlay.Node, error) {
	addr := c.mint(len(c.addrs))
	c.addrs = append(c.addrs, addr)
	n, err := c.AddNode(addr)
	if err != nil {
		return nil, fmt.Errorf("AddNode(%q): %w", addr, err)
	}
	return n, nil
}

func (c *cluster) join(t *testing.T) *overlay.Node {
	t.Helper()
	n, err := c.add()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (c *cluster) load(t *testing.T, prefix string, n int) map[dht.Key]int {
	t.Helper()
	want := make(map[dht.Key]int, n)
	for i := 0; i < n; i++ {
		k := dht.Key(fmt.Sprintf("%s%d", prefix, i))
		want[k] = i
		if err := c.Put(k, i); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	return want
}

func (c *cluster) checkGets(t *testing.T, stage string, want map[dht.Key]int) {
	t.Helper()
	for k, v := range want {
		got, ok, err := c.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("%s: Get(%q) = %v, %v, %v; want %d", stage, k, got, ok, err, v)
		}
	}
}

// loaded returns a live node that holds primaries.
func (c *cluster) loaded(t *testing.T) *overlay.Node {
	t.Helper()
	for _, addr := range c.Nodes() {
		if n, _ := c.NodeAt(addr); n.StoreLen() > 0 {
			return n
		}
	}
	t.Fatal("no node holds data")
	return nil
}

// overlayChurner adapts a cluster's management plane to RunChurn. wrap
// builds the client-facing DHT: the overlay itself or a decorator stack
// over it.
type overlayChurner struct {
	c    *cluster
	wrap func(dht.DHT) dht.DHT
}

func (oc overlayChurner) DHT() dht.DHT                    { return oc.wrap(oc.c.Overlay) }
func (oc overlayChurner) Live() []transport.NodeID        { return oc.c.Nodes() }
func (oc overlayChurner) Down() []transport.NodeID        { return oc.c.CrashedNodes() }
func (oc overlayChurner) Crash(id transport.NodeID) error { return oc.c.CrashNode(id) }
func (oc overlayChurner) Leave(id transport.NodeID) error { return oc.c.RemoveNode(id) }

// settleRounds is how many maintenance rounds placement needs to reach its
// fixpoint after a membership change: routing may take a round to converge,
// a displaced or orphaned replica then outlives its lease by two more
// (the kernel's replicaGraceRounds), and the next round relocates it.
// Writes landing on anything short of the fixpoint meet stale copies: a
// delete that misses one is undone when the copy is relocated.
const settleRounds = 4

func (oc overlayChurner) Settle() { oc.c.Stabilize(settleRounds) }

func (oc overlayChurner) Restart(id transport.NodeID) error {
	_, err := oc.c.RestartNode(id)
	return err
}

// Join ignores the schedule's label: the fixture mints the address, which
// over TCP must be a reserved port.
func (oc overlayChurner) Join(transport.NodeID) error {
	_, err := oc.c.add()
	return err
}

// RunOverlayChurn runs the churn gate (RunChurn) on a ten-node overlay of
// the fixture's protocol with replication 3, the client-facing DHT wrapped
// by wrap.
func RunOverlayChurn(t *testing.T, f OverlayFixture, wrap func(dht.DHT) dht.DHT) {
	RunChurn(t, func(t *testing.T) Churner {
		c := f.build(t, 10, overlay.Config{Replication: 3})
		return overlayChurner{c, wrap}
	})
}

// RunLifecycle pins the overlay kernel's management plane on one protocol:
// crashes destroy state, restarts rejoin and reconverge (down to the last
// node), replica placement stays exact across membership changes, graceful
// leaves hand every key to somebody or say how many they could not, and
// failed maintenance is counted rather than dropped.
func RunLifecycle(t *testing.T, f OverlayFixture) {
	t.Helper()

	t.Run("CrashWipesNodeState", func(t *testing.T) {
		c := f.build(t, 8, overlay.Config{Replication: 2})
		c.load(t, "k", 100)
		victim := c.loaded(t)
		if err := c.CrashNode(victim.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := victim.StoreLen() + len(victim.ReplicaSnapshot()); got != 0 {
			t.Errorf("crashed node still holds %d entries; crash must wipe volatile state", got)
		}
		if got := victim.Routing().Neighbours(victim.ID()); len(got) != 0 {
			t.Errorf("crashed node kept routing state: %v", got)
		}
		if err := c.CrashNode(victim.Addr()); err == nil {
			t.Error("double CrashNode succeeded")
		}
	})

	// The full crash → failover → restart cycle on a replicated overlay: no
	// key may be lost while the node is down, and after restart the overlay
	// must reconverge with the restarted node holding its share again.
	t.Run("RestartRejoinsAndReconverges", func(t *testing.T) {
		c := f.build(t, 10, overlay.Config{Replication: 2})
		want := c.load(t, "rk", 200)
		c.Stabilize(2) // settle replica placement
		victim := c.addrs[4]

		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		if got := c.CrashedNodes(); len(got) != 1 || got[0] != victim {
			t.Fatalf("CrashedNodes = %v, want [%s]", got, victim)
		}
		c.Stabilize(3) // failover: promote replicas, re-replicate
		c.checkGets(t, "while down", want)

		n, err := c.RestartNode(victim)
		if err != nil {
			t.Fatalf("RestartNode: %v", err)
		}
		if got := c.CrashedNodes(); len(got) != 0 {
			t.Errorf("CrashedNodes after restart = %v, want empty", got)
		}
		if _, live := c.NodeAt(victim); !live {
			t.Fatal("restarted node missing from the live membership")
		}
		c.Stabilize(3)

		got := map[dht.Key]int{}
		if err := c.Range(func(k dht.Key, v any) bool {
			got[k], _ = v.(int)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Range saw %d entries after restart, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("Range[%q] = %d, want %d", k, got[k], v)
			}
		}
		owned := 0
		for k := range want {
			if owner, err := c.Owner(k); err == nil && owner == string(victim) {
				owned++
			}
		}
		if got := n.StoreLen(); got != owned {
			t.Errorf("restarted node holds %d primaries but routing sends it %d keys; claim-on-rejoin did not run", got, owned)
		}
		if len(n.Routing().Neighbours(n.ID())) == 0 {
			t.Error("restarted node has no routing state; rejoin did not run")
		}
		c.checkGets(t, "after restart", want)
	})

	t.Run("RestartErrors", func(t *testing.T) {
		c := f.build(t, 4, overlay.Config{})
		if _, err := c.RestartNode(c.addrs[1]); err == nil {
			t.Error("RestartNode of a live node succeeded")
		}
		if _, err := c.RestartNode("nope"); err == nil {
			t.Error("RestartNode of an unknown node succeeded")
		}
		if err := c.CrashNode(c.addrs[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RestartNode(c.addrs[1]); err != nil {
			t.Fatalf("first RestartNode: %v", err)
		}
		if _, err := c.RestartNode(c.addrs[1]); err == nil {
			t.Error("second RestartNode succeeded")
		}
	})

	// Crash every node, then restart one: it must come back as a fresh
	// singleton that accepts writes.
	t.Run("RestartLastNode", func(t *testing.T) {
		c := f.build(t, 3, overlay.Config{})
		for _, addr := range c.addrs {
			if err := c.CrashNode(addr); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RestartNode(c.addrs[0]); err != nil {
			t.Fatalf("RestartNode into an empty overlay: %v", err)
		}
		if err := c.Put("k", 1); err != nil {
			t.Fatalf("Put on restarted singleton: %v", err)
		}
		if v, ok, err := c.Get("k"); err != nil || !ok || v != 1 {
			t.Fatalf("Get = %v, %v, %v", v, ok, err)
		}
	})

	// The circuit breaker guarding replication RPCs to a peer accumulates
	// failure evidence while that peer is down; a restart invalidates the
	// evidence, so RestartNode must reset the owner's breaker instead of
	// leaving the healthy peer fenced off for the rest of the cooldown.
	t.Run("RestartResetsBreaker", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{Replication: 2, Retry: &dht.RetryPolicy{
			MaxAttempts:      1,
			BreakerThreshold: 1,
			BreakerCooldown:  1000,
			Sleep:            dht.NoSleep,
		}})
		victim := c.addrs[2]
		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		// Writes owned by the victim's neighbours still name it as a replica
		// target until the next maintenance round; one failed push trips
		// the breaker. Writes routed at the victim itself just fail.
		breaker := func() string { return c.ReplicationRetrier().BreakerState(string(victim)) }
		failed := 0
		for i := 0; i < 500 && breaker() != "open"; i++ {
			if err := c.Put(dht.Key(fmt.Sprintf("bk%d", i)), i); err != nil {
				failed++
			}
		}
		if st := breaker(); st != "open" {
			t.Fatalf("breaker after pushes to a crashed peer = %q, want open (%d writes failed outright)", st, failed)
		}
		// The exhausted push is counted and retrievable, not swallowed.
		if c.ReplicationErrors.Load() == 0 || c.LastReplicationError() == nil {
			t.Error("a push that exhausted its retry budget left ReplicationErrors and LastReplicationError unset")
		}
		if _, err := c.RestartNode(victim); err != nil {
			t.Fatal(err)
		}
		if st := breaker(); st != "closed" {
			t.Errorf("breaker after restart = %q, want closed", st)
		}
	})

	// Every key has exactly one primary and Replication-1 replica copies in
	// steady state and again after each kind of membership change. Joins
	// erode replica sets (the joiner's claim takes primaries, displacing the
	// line of succession) and crashes thin them; restarts leave stale copies
	// on the nodes that covered. The repair rounds — re-push, lease expiry,
	// relocation — must restore exact placement every time: over-counted
	// sets serve stale reads and resurrect deleted keys on promotion.
	t.Run("ReplicaPlacementExact", func(t *testing.T) {
		c := f.build(t, 12, overlay.Config{Replication: 3})
		want := c.load(t, "xk", 200)
		checkExact := func(stage string) {
			t.Helper()
			primaries, replicas := map[dht.Key]int{}, map[dht.Key]int{}
			for _, addr := range c.Nodes() {
				n, _ := c.NodeAt(addr)
				for k := range n.StoreSnapshot() {
					primaries[k]++
				}
				for k := range n.ReplicaSnapshot() {
					replicas[k]++
				}
			}
			for k := range want {
				if primaries[k] != 1 || replicas[k] != 2 {
					t.Errorf("%s: key %q has %d primary and %d replica copies, want 1 and 2 (r=3)", stage, k, primaries[k], replicas[k])
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
		c.Stabilize(2)
		checkExact("steady state")
		if got := c.ReplicationErrors.Load(); got != 0 {
			t.Errorf("ReplicationErrors on a healthy overlay = %d, want 0", got)
		}

		c.join(t)
		c.Stabilize(settleRounds)
		checkExact("after join")

		victim := c.addrs[5]
		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(settleRounds) // failover + lease expiry of displaced copies
		checkExact("after crash")

		if _, err := c.RestartNode(victim); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(settleRounds) // rejoin, reclaim, and lease expiry of stale copies
		checkExact("after restart")
		c.checkGets(t, "after restart cycle", want)
	})

	t.Run("LeaveHandsOffEveryKey", func(t *testing.T) {
		c := f.build(t, 10, overlay.Config{})
		want := c.load(t, "lk", 300)
		for _, i := range []int{3, 7, 0} {
			if err := c.RemoveNode(c.addrs[i]); err != nil {
				t.Fatalf("RemoveNode(%q): %v", c.addrs[i], err)
			}
			c.Stabilize(2)
		}
		c.checkGets(t, "after leaves", want)
		if err := c.RemoveNode(c.addrs[3]); err == nil {
			t.Error("double RemoveNode succeeded")
		}
	})

	// A node whose first-choice heir just crashed hands its keys to the next
	// neighbour in line, which is the keys' owner once routing repairs.
	t.Run("LeaveSkipsDeadHeir", func(t *testing.T) {
		c := f.build(t, 10, overlay.Config{})
		c.load(t, "hk", 300)
		victim := c.loaded(t)
		held := victim.StoreSnapshot()
		for k := range held {
			h := dht.HashKey(k)
			var heir overlay.Ref
			for _, cand := range victim.Routing().Neighbours(h) {
				if heir.IsZero() || c.Router().Closer(h, cand.ID, heir.ID) {
					heir = cand
				}
			}
			if err := c.CrashNode(heir.Addr); err != nil {
				t.Fatal(err)
			}
			break
		}
		if err := c.RemoveNode(victim.Addr()); err != nil {
			t.Fatalf("RemoveNode with a dead first heir: %v", err)
		}
		c.Stabilize(3)
		for k, v := range held {
			got, ok, err := c.Get(k)
			if err != nil || !ok || got != v {
				t.Fatalf("Get(%q) = %v, %v, %v after leaving past a dead heir; want %v", k, got, ok, err, v)
			}
		}
	})

	// Silent loss on graceful leave: with every handoff lost to the network
	// the departure must say how many keys it could not place and count the
	// failure, not return nil with the keys gone.
	t.Run("LeaveUnderLossReportsKeys", func(t *testing.T) {
		c := f.build(t, 8, overlay.Config{})
		if c.setDropRate == nil {
			t.Skip("transport cannot inject loss")
		}
		c.load(t, "dk", 200)
		victim := c.loaded(t)
		held := victim.StoreLen()
		before := c.MaintenanceErrors.Load()
		c.setDropRate(1.0)
		err := c.RemoveNode(victim.Addr())
		c.setDropRate(0)
		if err == nil {
			t.Fatalf("RemoveNode under total loss returned nil with %d keys to hand off", held)
		}
		if want := fmt.Sprintf("%d of %d keys not handed off", held, held); !strings.Contains(err.Error(), want) {
			t.Errorf("RemoveNode error = %v, want it to say %q", err, want)
		}
		if c.MaintenanceErrors.Load() == before || c.LastMaintenanceError() == nil {
			t.Error("failed handoff was not counted in MaintenanceErrors")
		}
	})

	t.Run("MaintenanceErrorsCounted", func(t *testing.T) {
		c := f.build(t, 10, overlay.Config{})
		if c.setDropRate == nil {
			t.Skip("transport cannot inject loss")
		}
		if got, err := c.MaintenanceErrors.Load(), c.LastMaintenanceError(); got != 0 || err != nil {
			t.Fatalf("healthy overlay: MaintenanceErrors = %d, last = %v; want 0, nil", got, err)
		}
		// Partial, seeded loss: probes get through often enough that rounds
		// proceed, but some of the messages a round depends on are dropped.
		c.setDropRate(0.3)
		c.Stabilize(3)
		c.setDropRate(0)
		if c.MaintenanceErrors.Load() == 0 {
			t.Fatal("MaintenanceErrors = 0 after stabilizing under 30% loss, want > 0")
		}
		if err := c.LastMaintenanceError(); err == nil || !strings.Contains(err.Error(), f.TickError) {
			t.Fatalf("LastMaintenanceError = %v, want a %q failure", err, f.TickError)
		}
		// Repair: once the network heals, rounds stop accumulating errors.
		c.Stabilize(2)
		healed := c.MaintenanceErrors.Load()
		c.Stabilize(2)
		if got := c.MaintenanceErrors.Load(); got != healed {
			t.Fatalf("MaintenanceErrors grew from %d to %d on a healed network", healed, got)
		}

		// A departure notice lost to the network is counted too, while the
		// departure itself — the node holds no keys — still succeeds.
		c.setDropRate(1.0)
		err := c.RemoveNode(c.addrs[2])
		c.setDropRate(0)
		if err != nil {
			t.Fatalf("RemoveNode of a keyless node under loss: %v", err)
		}
		if f.UnlinkError == "" {
			return
		}
		if err := c.LastMaintenanceError(); c.MaintenanceErrors.Load() == healed || err == nil || !strings.Contains(err.Error(), f.UnlinkError) {
			t.Fatalf("LastMaintenanceError after a lost departure notice = %v, want a %q failure", err, f.UnlinkError)
		}
	})
}
