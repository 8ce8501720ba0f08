// The overlay suites: every management-plane and churn behaviour the kernel
// promises, run once per routing protocol over the simulated network and
// again over loopback TCP. The protocols differ only in their Router, so one
// table replaces the per-package copies of these tests.
package overlay_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
	"mlight/internal/transport"
)

// protocols names each Router and the maintenance messages whose loss it
// reports (dhttest.OverlayFixture).
var protocols = []struct {
	name, tickError, unlinkError string
	// tcpBase is the first loopback port of the protocol's TCP runs. A
	// node's identifier is the hash of its address, so ephemeral ports
	// would draw a new ring layout every run, and the churn gate's
	// schedule — two departures a round against replication 3 — sits close
	// enough to the edge that about one random layout in a hundred loses it
	// (ROADMAP "Recent", PR 14). Fixed ports make a TCP run as repeatable as
	// a simnet one. The ranges sit below the kernel's ephemeral ports and
	// apart from each other, since the protocols run in parallel.
	tcpBase int
}{
	{"chord", "notify", "relink", 18100},
	{"pastry", "announce", "retire", 18300},
	{"kademlia", "refresh find-node", "", 18500},
}

// forEachProtocol runs body once per protocol and transport. The TCP runs
// cross real sockets for every RPC and are skipped under -short.
func forEachProtocol(t *testing.T, body func(t *testing.T, f dhttest.OverlayFixture)) {
	for _, p := range protocols {
		p := p
		f := dhttest.OverlayFixture{TickError: p.tickError, UnlinkError: p.unlinkError}
		f.Dial = func(t *testing.T, net transport.Interface, cfg overlay.Config) *overlay.Overlay {
			return mustNew(t, p.name, net, cfg)
		}
		t.Run(p.name+"/simnet", func(t *testing.T) {
			f.New = func(t *testing.T, cfg overlay.Config) (*overlay.Overlay, func(int) transport.NodeID, func(float64)) {
				net := simnet.New(simnet.Options{Seed: cfg.Seed})
				return mustNew(t, p.name, net, cfg), simAddr, net.SetDropRate
			}
			body(t, f)
		})
		t.Run(p.name+"/tcp", func(t *testing.T) {
			if testing.Short() {
				t.Skip("socket-backed overlay suites are not short")
			}
			t.Parallel()
			f.New = func(t *testing.T, cfg overlay.Config) (*overlay.Overlay, func(int) transport.NodeID, func(float64)) {
				tr := transport.NewTCP(transport.TCPOptions{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second})
				t.Cleanup(func() {
					if err := tr.Close(); err != nil {
						t.Errorf("transport close: %v", err)
					}
				})
				listen := func(i int) transport.NodeID {
					id, err := tr.Listen(fmt.Sprintf("127.0.0.1:%d", p.tcpBase+i))
					if err != nil {
						// Somebody else holds the port: any free one will
						// do, at the price of an unrehearsed layout.
						if id, err = tr.Reserve(); err != nil {
							t.Fatalf("listen: %v", err)
						}
					}
					return id
				}
				return mustNew(t, p.name, tr, cfg), listen, nil
			}
			body(t, f)
		})
	}
}

func mustNew(t *testing.T, name string, net transport.Interface, cfg overlay.Config) *overlay.Overlay {
	t.Helper()
	o, err := substrate.New(name, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func simAddr(i int) transport.NodeID { return transport.NodeID(fmt.Sprintf("node-%d", i)) }

func TestLifecycle(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, dhttest.RunLifecycle)
}

// TestChurnSchedule pins the correctness gate of the churn suite on the raw
// overlay: after a deterministic schedule of joins, leaves, crashes, and
// restarts under an active workload, a full scan equals ground truth.
func TestChurnSchedule(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, func(t *testing.T, f dhttest.OverlayFixture) {
		dhttest.RunOverlayChurn(t, f, func(d dht.DHT) dht.DHT { return d })
	})
}

// TestChurnScheduleDecorated runs the same gate through the decorator stack
// an index deployment actually uses, so churn recovery is proven to compose
// with retries and accounting.
func TestChurnScheduleDecorated(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, func(t *testing.T, f dhttest.OverlayFixture) {
		dhttest.RunOverlayChurn(t, f, func(d dht.DHT) dht.DHT {
			return dht.NewResilient(dht.NewCounting(d, nil),
				dht.RetryPolicy{MaxAttempts: 4, Sleep: dht.NoSleep}, nil)
		})
	})
}

// TestDirect pins client mode's member view and the lookup rotation.
func TestDirect(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, dhttest.RunDirect)
}

// TestBatch pins the batch read: one frame per owner in client mode, per-key
// declines, a dead member forgotten, and no batch frame from a hosting overlay.
func TestBatch(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, dhttest.RunBatch)
}

// TestOps pins the op message: one RPC and the result, nothing written when
// nothing changed, a declined op routed once, a failed one never re-sent, and
// a crash-window replica taken as input.
func TestOps(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, dhttest.RunOverlayOps)
}

// TestChurnScheduleDialed runs the churn gate with the workload issued by a
// dialed client, so the schedule's joins, leaves, crashes and restarts keep
// invalidating the view its direct sends are picked from.
func TestChurnScheduleDialed(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	forEachProtocol(t, func(t *testing.T, f dhttest.OverlayFixture) {
		dhttest.RunDialedChurn(t, f, func(d dht.DHT) dht.DHT {
			return dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 4, Sleep: dht.NoSleep}, nil)
		})
	})
}

// firstCallNet records where a client sends its first RPC and fails every
// call: the destination of a direct send is the view member that was picked.
type firstCallNet struct {
	transport.Interface
	first transport.NodeID
}

func (n *firstCallNet) Call(_, to transport.NodeID, _ any) (any, error) {
	if n.first == "" {
		n.first = to
	}
	return nil, transport.ErrUnreachable
}

// TestPickIsBestByCloser: under each protocol's real comparator, over random
// views, a direct send goes to the member no other member is Closer than —
// the head of the linear ranking replica placement uses (nearest).
func TestPickIsBestByCloser(t *testing.T) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	for _, p := range protocols {
		for trial := 0; trial < 300; trial++ {
			seeds := make([]transport.NodeID, 1+rng.Intn(40))
			for i := range seeds {
				seeds[i] = transport.NodeID(fmt.Sprintf("member-%d-%d", trial, rng.Int63()))
			}
			net := &firstCallNet{Interface: simnet.New(simnet.Options{})}
			o := mustNew(t, p.name, net, overlay.Config{Seeds: seeds})
			key := dht.Key(fmt.Sprintf("key-%d", rng.Int63()))
			h := dht.HashKey(key)
			best := overlay.RefOf(seeds[0])
			for _, s := range seeds[1:] {
				if m := overlay.RefOf(s); o.Router().Closer(h, m.ID, best.ID) {
					best = m
				}
			}
			if _, _, err := o.Get(key); err == nil {
				t.Fatalf("%s: Get succeeded on a transport that fails every call", p.name)
			}
			if net.first != best.Addr {
				t.Fatalf("%s: direct send for %v went to %q, the best member by Closer is %q", p.name, h, net.first, best.Addr)
			}
		}
	}
}
