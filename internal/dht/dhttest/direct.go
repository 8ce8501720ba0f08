package dhttest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// countedNet counts the RPCs a client issues. Embedding the interface hides
// simnet's inline-delivery marker, so a dialed overlay runs Apply as the
// wire-safe CAS protocol on the simulated network too — the protocol a real
// client uses.
type countedNet struct {
	transport.Interface
	calls atomic.Int64
	// lose, when set, names the requests that are lost on the way out;
	// loseReply those that are delivered, and served, and whose reply is lost.
	lose, loseReply func(req any) bool
}

func (n *countedNet) Call(from, to transport.NodeID, req any) (any, error) {
	n.calls.Add(1)
	if n.lose != nil && n.lose(req) {
		return nil, fmt.Errorf("%w: %q (injected)", transport.ErrUnreachable, to)
	}
	resp, err := n.Interface.Call(from, to, req)
	if n.loseReply != nil && n.loseReply(req) {
		return nil, fmt.Errorf("%w: %q (reply lost, injected)", transport.ErrUnreachable, to)
	}
	return resp, err
}

// dialed is a client-mode overlay on a cluster's transport: what mlight.Dial
// builds against a daemon cluster.
type dialed struct {
	*overlay.Overlay
	net *countedNet
}

func (f OverlayFixture) dial(t *testing.T, c *cluster, cfg overlay.Config) dialed {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	net := &countedNet{Interface: c.Net()}
	return dialed{f.Dial(t, net, cfg), net}
}

// rpcs runs op and returns how many RPCs the client issued for it.
func (d dialed) rpcs(op func()) int64 {
	before := d.net.calls.Load()
	op()
	return d.net.calls.Load() - before
}

// mustGet reads k through the client, checks the value, and returns the RPCs
// the read cost.
func (d dialed) mustGet(t *testing.T, stage string, k dht.Key, want int) int64 {
	t.Helper()
	return d.rpcs(func() {
		if v, ok, err := d.Get(k); err != nil || !ok || v != want {
			t.Fatalf("%s: Get(%q) = %v, %v, %v; want %d", stage, k, v, ok, err, want)
		}
	})
}

// ownedBy returns the keys of want whose routed owner is addr.
func (c *cluster) ownedBy(t *testing.T, want map[dht.Key]int, addr transport.NodeID) []dht.Key {
	t.Helper()
	var keys []dht.Key
	for k := range want {
		owner, err := c.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%q): %v", k, err)
		}
		if owner == string(addr) {
			keys = append(keys, k)
		}
	}
	return keys
}

// RunDirect pins client mode's member view on one protocol: with the owners
// known an operation is one store RPC and no routing; a stale pick — the
// owner changed, or died — costs one declined or failed send, is invisible
// to the caller, and teaches the view; and lookups rotate over the entry
// points instead of redrawing a dead one.
func RunDirect(t *testing.T, f OverlayFixture) {
	t.Helper()

	t.Run("CompleteViewCosts", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{})
		want := c.load(t, "dk", 60)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		for k, v := range want {
			if n := d.mustGet(t, "complete view", k, v); n != 1 {
				t.Fatalf("Get(%q) cost %d RPCs with every owner in the view, want 1", k, n)
			}
			n := d.rpcs(func() {
				if err := d.Apply(k, func(cur any, _ bool) (any, bool) { return cur.(int) + 1000, true }); err != nil {
					t.Fatalf("Apply(%q): %v", k, err)
				}
			})
			if n != 2 {
				t.Fatalf("Apply(%q) cost %d RPCs with every owner in the view, want 2 (GetVer + CAS)", k, n)
			}
			want[k] = v + 1000
		}
		if err := d.Put("dk-new", 7); err != nil {
			t.Fatal(err)
		}
		want["dk-new"] = 7
		if err := d.Remove("dk0"); err != nil {
			t.Fatal(err)
		}
		delete(want, "dk0")
		// The hosting overlay routes: it sees what the direct writes left.
		c.checkGets(t, "routed read of direct writes", want)
		if v, ok, err := c.Get("dk0"); err != nil || ok {
			t.Fatalf("routed Get of a directly removed key = %v, %v, %v", v, ok, err)
		}
		if hops, lookups := d.Hops.Load(), d.Lookups.Load(); hops != 0 || lookups != 0 {
			t.Errorf("client routed (%d hops, %d lookups) with every owner in the view", hops, lookups)
		}
		sends, declined, failed := d.DirectSends.Load(), d.DirectDeclined.Load(), d.DirectFailed.Load()
		if sends != int64(2*60+2) || declined != 0 || failed != 0 || d.ViewSize() != 6 {
			t.Errorf("%s; want %d sends, none declined or failed, view of 6", d.DirectSummary(), 2*60+2)
		}
		if got := c.ViewSize(); got != 0 {
			t.Errorf("an overlay hosting nodes has a view of %d", got)
		}
	})

	t.Run("JoinerDeclinesOnceThenDirect", func(t *testing.T) {
		c := f.build(t, 5, overlay.Config{})
		want := c.load(t, "jk", 300)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		var joiner transport.NodeID
		var taken []dht.Key
		for tries := 0; len(taken) == 0 && tries < 4; tries++ {
			joiner = c.join(t).Addr()
			taken = c.ownedBy(t, want, joiner)
		}
		if len(taken) == 0 {
			t.Fatal("four joiners took over none of 300 keys")
		}
		k := taken[0]
		declined := d.DirectDeclined.Load()
		d.mustGet(t, "after join", k, want[k])
		if got := d.DirectDeclined.Load() - declined; got != 1 {
			t.Fatalf("first read of a key the joiner took over was declined %d times, want 1", got)
		}
		if n := d.mustGet(t, "joiner learned", k, want[k]); n != 1 || d.DirectDeclined.Load() != declined+1 {
			t.Fatalf("second read cost %d RPCs (%s), want 1 sent direct to the joiner", n, d.DirectSummary())
		}
		if d.DirectFailed.Load() != 0 {
			t.Errorf("a join failed a direct send: %s", d.DirectSummary())
		}
	})

	t.Run("CrashedMemberLeavesAndReturns", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{Replication: 2})
		want := c.load(t, "ck", 200)
		c.Stabilize(2) // settle replica placement
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		victim := c.loaded(t).Addr()
		k := c.ownedBy(t, want, victim)[0]

		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(3) // failover: the replica holder promotes
		d.mustGet(t, "owner crashed", k, want[k])
		if failed, size := d.DirectFailed.Load(), d.ViewSize(); failed != 1 || size != 5 {
			t.Fatalf("after a read picked the crashed member: %s; want 1 failed, view of 5", d.DirectSummary())
		}
		if n := d.mustGet(t, "heir learned", k, want[k]); n != 1 {
			t.Fatalf("read after failover cost %d RPCs, want 1 sent direct to the heir", n)
		}

		if _, err := c.RestartNode(victim); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(3)
		declined := d.DirectDeclined.Load()
		d.mustGet(t, "owner back", k, want[k])
		if got, size := d.DirectDeclined.Load()-declined, d.ViewSize(); got != 1 || size != 6 {
			t.Fatalf("after the owner restarted: %s; want the heir to decline once and a routed lookup to re-admit the owner", d.DirectSummary())
		}
		if n := d.mustGet(t, "owner re-admitted", k, want[k]); n != 1 {
			t.Fatalf("read after re-admission cost %d RPCs, want 1", n)
		}
	})

	t.Run("OneSeedConverges", func(t *testing.T) {
		const nodes = 6
		c := f.build(t, nodes, overlay.Config{})
		want := c.load(t, "sk", 200)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs[:1]})
		for k, v := range want {
			d.mustGet(t, "converging", k, v)
		}
		declined := d.DirectDeclined.Load()
		if declined > nodes || d.ViewSize() > nodes || d.DirectFailed.Load() != 0 {
			t.Fatalf("dialed with one seed of %d: %s; want at most %d declined, none failed", nodes, d.DirectSummary(), nodes)
		}
		for k, v := range want {
			if n := d.mustGet(t, "converged", k, v); n != 1 {
				t.Fatalf("Get(%q) cost %d RPCs after convergence, want 1", k, n)
			}
		}
		if got := d.DirectDeclined.Load(); got != declined {
			t.Errorf("declined sends grew from %d to %d after convergence", declined, got)
		}
	})

	// The view is read without a lock and replaced under one: goroutines
	// sharing a client that is still learning the ring must all read right.
	t.Run("ConcurrentReadersShareView", func(t *testing.T) {
		const nodes, readers = 6, 8
		c := f.build(t, nodes, overlay.Config{})
		want := c.load(t, "vk", 100)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs[:1]})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, v := range want {
					if got, ok, err := d.Get(k); err != nil || !ok || got != v {
						t.Errorf("Get(%q) = %v, %v, %v; want %d", k, got, ok, err, v)
						return
					}
				}
			}()
		}
		wg.Wait()
		if d.ViewSize() > nodes || d.DirectFailed.Load() != 0 {
			t.Errorf("after %d concurrent readers: %s; want a view of at most %d, none failed", readers, d.DirectSummary(), nodes)
		}
	})

	// A direct Apply whose CAS is lost must not start over on its own: the
	// error goes to the caller's retry layer, as it does on the routed path,
	// and the transform has run once.
	t.Run("ApplyFailureAfterSnapshotSurfaces", func(t *testing.T) {
		c := f.build(t, 4, overlay.Config{})
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		if err := d.Put("ak", 1); err != nil {
			t.Fatal(err)
		}
		d.net.lose = func(req any) bool { _, cas := req.(dht.CASReq); return cas }
		runs := 0
		n := d.rpcs(func() {
			if err := d.Apply("ak", func(cur any, _ bool) (any, bool) { runs++; return cur.(int) + 1, true }); err == nil {
				t.Fatal("Apply reported success though its CAS never arrived")
			}
		})
		d.net.lose = nil
		if runs != 1 || n != 2 {
			t.Fatalf("a lost CAS ran the transform %d times over %d RPCs, want once over 2 (GetVer, CAS)", runs, n)
		}
		if d.DirectFailed.Load() != 0 || d.ViewSize() != 4 {
			t.Errorf("a lost CAS touched the view: %s", d.DirectSummary())
		}
		d.mustGet(t, "after the lost CAS", "ak", 1)
	})

	// Three independent draws over four entry points, one dead, all hit the
	// dead one 1 time in 64; a rotation cannot.
	t.Run("LookupRotatesPastDeadSeed", func(t *testing.T) {
		c := f.build(t, 4, overlay.Config{})
		if err := c.CrashNode(c.addrs[2]); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(3)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		for i := 0; i < 400; i++ {
			if _, err := d.Owner(dht.Key(fmt.Sprintf("rk%d", i))); err != nil {
				t.Fatalf("lookup %d with one dead seed of four: %v", i, err)
			}
		}
		if d.DirectSends.Load() != 0 {
			t.Errorf("Owner went direct: %s", d.DirectSummary())
		}
	})
}

// viewChurner runs the churn gate's workload through a dialed overlay, so
// every operation starts as a direct send on a view the schedule keeps
// invalidating.
type viewChurner struct {
	overlayChurner
	client *overlay.Overlay
}

// dialedDHT is the client's store plane with the hosts' enumeration: a
// client-mode overlay holds no store of its own for the full-scan gate to
// walk.
//
//lint:allow decoratorcomplete the churn gate issues per-key operations only, which is what must reach the client overlay
type dialedDHT struct {
	dht.DHT
	dht.Enumerator
}

func (vc viewChurner) DHT() dht.DHT {
	return dialedDHT{vc.wrap(vc.client), vc.c.Overlay}
}

// RunDialedChurn is RunOverlayChurn with the client-facing DHT dialed: a
// client-mode overlay seeded with the ten founding nodes, replicating its
// writes like the hosts do.
func RunDialedChurn(t *testing.T, f OverlayFixture, wrap func(dht.DHT) dht.DHT) {
	RunChurn(t, func(t *testing.T) Churner {
		c := f.build(t, 10, overlay.Config{Replication: 3})
		d := f.dial(t, c, overlay.Config{Replication: 3, Seeds: c.addrs})
		t.Cleanup(func() {
			if d.DirectSends.Load() == 0 || d.DirectDeclined.Load()+d.DirectFailed.Load() == 0 {
				t.Errorf("churn never exercised a stale pick: %s", d.DirectSummary())
			}
		})
		return viewChurner{overlayChurner{c, wrap}, d.Overlay}
	})
}
