package pastry

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
	"mlight/internal/transport"
)

// recordRoute returns the nodes a route from entry towards target asks, in
// order, the owner last, read off their routing tables.
func recordRoute(t *testing.T, o *Overlay, entry ref, target dht.ID) []ref {
	t.Helper()
	path := []ref{entry}
	for {
		n, ok := o.NodeAt(path[len(path)-1].Addr)
		if !ok {
			t.Fatalf("node %q not managed", path[len(path)-1].Addr)
		}
		resp := n.Routing().(*node).nextHop(target)
		if resp.Done {
			return path
		}
		path = append(path, resp.Next)
	}
}

// TestRouteDetour crashes each hop of recorded routes after the entry, one
// at a time on a fresh overlay, and routes again with no round run. Around
// a dead middle hop the kernel's loop (overlay.Route) asks the node that
// named it for its peers and goes on from the closest live one: the route
// answers the owner a stabilized overlay answers, at the cost of exactly one
// detour and two RPCs, the failed step and the peer list. A dead owner stays
// an error: every peer the route can reach ranks behind it.
func TestRouteDetour(t *testing.T) {
	const peers, keys = 32, 24
	middle := 0
	for i := range keys {
		target := dht.HashKey(dht.Key(fmt.Sprintf("detour-%d", i)))
		_, o := buildOverlay(t, peers)
		entry := overlayRef(t, o, "node-0")
		path := recordRoute(t, o, entry, target)
		for j := 1; j < len(path); j++ {
			_, o := buildOverlay(t, peers)
			if err := o.CrashNode(path[j].Addr); err != nil {
				t.Fatal(err)
			}
			hops, detours := o.Hops.Load(), o.Detours.Load()
			owner, err := o.Router().Route(entry, target)
			hops, detours = o.Hops.Load()-hops, o.Detours.Load()-detours
			what := fmt.Sprintf("key %d, route %d hops, %s crashed", i, len(path), path[j].Addr)
			if j == len(path)-1 {
				if err == nil {
					t.Errorf("%s: the owner is dead, yet the route answered %s", what, owner.Addr)
				}
				continue
			}
			middle++
			o.Stabilize(3)
			want, werr := o.Router().Route(entry, target)
			switch {
			case err != nil || werr != nil:
				t.Errorf("%s: %v; after stabilizing: %v", what, err, werr)
			case owner != want:
				t.Errorf("%s: route answered %s, a stabilized overlay %s", what, owner.Addr, want.Addr)
			case detours != 1 || hops != int64(len(path))+2:
				t.Errorf("%s: %d detours and %d hops, want 1 and the clean route's %d + 2", what, detours, hops, len(path))
			}
		}
	}
	if middle == 0 {
		t.Fatal("no route had a middle hop")
	}
	t.Logf("%d middle hops crashed", middle)
}

// TestRouteDetourUnderLoss crashes each middle hop of recorded routes, as
// TestRouteDetour does, while a quarter of all messages are lost, so that
// steps to live nodes go missing too: a route answers the owner, which did
// not crash, or fails — never another node.
func TestRouteDetourUnderLoss(t *testing.T) {
	const peers, keys = 32, 24
	answered, failed := 0, 0
	for i := range keys {
		target := dht.HashKey(dht.Key(fmt.Sprintf("detour-%d", i)))
		_, o := buildOverlay(t, peers)
		entry := overlayRef(t, o, "node-0")
		path := recordRoute(t, o, entry, target)
		for j := 1; j < len(path)-1; j++ {
			net := simnet.New(simnet.Options{Seed: int64(i*peers + j)}) // draws the lost messages
			o := NewOverlay(net, Config{Seed: 1})
			for k := range peers {
				if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			o.Stabilize(2)
			if err := o.CrashNode(path[j].Addr); err != nil {
				t.Fatal(err)
			}
			net.SetDropRate(0.25)
			for range 8 { // each route draws other losses
				switch owner, err := o.Router().Route(entry, target); {
				case err != nil:
					failed++
				case owner != path[len(path)-1]:
					t.Errorf("key %d, %s crashed: route answered %s, the owner is %s", i, path[j].Addr, owner.Addr, path[len(path)-1].Addr)
				default:
					answered++
				}
			}
		}
	}
	if answered == 0 || failed == 0 {
		t.Fatalf("%d routes answered, %d failed: want some of each", answered, failed)
	}
	t.Logf("%d routes answered the owner, %d failed", answered, failed)
}

func overlayRef(t *testing.T, o *Overlay, addr simnet.NodeID) ref {
	t.Helper()
	n, ok := o.NodeAt(addr)
	if !ok {
		t.Fatalf("node %q not managed", addr)
	}
	return n.Ref()
}

// minus returns id − k around the ring.
func minus(id dht.ID, k int) dht.ID {
	var d dht.ID
	binary.BigEndian.PutUint32(d[len(d)-4:], uint32(k))
	return id.Sub(d)
}

// TestRouteRefusesHostileSteps: the kernel's loop refuses a step reply of
// another type, one that names the node asked, one whose next hop is no
// closer to the target than the node asked, and, at the hop bound, a cycle
// between two nodes that keeps the progress rule by lying about identifiers.
func TestRouteRefusesHostileSteps(t *testing.T) {
	target := dht.HashString("hostile-target")
	entry := ref{Addr: "evil-0", ID: minus(target, 1000)}
	for _, c := range []struct {
		name, want string
		reply      func(calls int) any
	}{
		{"wrong type", "bad response", func(int) any { return "no step" }},
		{"names the node asked", "stalled", func(int) any {
			return nextHopResp{Next: ref{Addr: "evil-0", ID: minus(target, 10)}}
		}},
		{"farther", "non-monotone", func(int) any {
			return nextHopResp{Next: ref{Addr: "evil-1", ID: minus(target, 2000)}}
		}},
		{"as far", "non-monotone", func(int) any {
			return nextHopResp{Next: ref{Addr: "evil-1", ID: entry.ID}}
		}},
		{"cycle", "exceeded 512 hops", func(calls int) any {
			return nextHopResp{Next: ref{Addr: simnet.NodeID(fmt.Sprintf("evil-%d", (calls+1)%2)), ID: minus(target, 999-calls)}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := simnet.New(simnet.Options{})
			o := NewOverlay(net, Config{Seed: 1})
			calls := 0
			for _, addr := range []simnet.NodeID{"evil-0", "evil-1"} {
				if err := net.Register(addr, transport.HandlerFunc(func(transport.NodeID, any) (any, error) {
					calls++
					return c.reply(calls - 1), nil
				})); err != nil {
					t.Fatal(err)
				}
			}
			owner, err := o.Router().Route(entry, target)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("route = %v, %v; want an error saying %q", owner, err, c.want)
			}
			if int64(calls) != o.Hops.Load() {
				t.Errorf("%d steps sent, %d hops counted", calls, o.Hops.Load())
			}
		})
	}
}
