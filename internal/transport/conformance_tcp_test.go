// Conformance over real sockets: the same behavioural suites every substrate
// passes on simnet, rerun with the overlays wired over loopback TCP. Every
// RPC — joins, stabilization, lookups, stores, the remote-apply CAS protocol
// — crosses a real framed connection, so this is the transport's end-to-end
// gate: if the envelope codec, the connection pool, or the CAS protocol
// miscarried anything, these suites fail exactly as they would for a broken
// overlay.
package transport_test

import (
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/substrate"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// tcpNodes is the overlay size for socket-backed suites: large enough to
// force multi-hop routing, small enough that the O(n²) join traffic keeps
// the suite fast.
const tcpNodes = 5

func newTCPTransport(t *testing.T) *transport.TCP {
	t.Helper()
	tr := transport.NewTCP(transport.TCPOptions{
		CallTimeout: 10 * time.Second,
		DialTimeout: 2 * time.Second,
	})
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	})
	return tr
}

// buildTCP builds the named overlay over one TCP transport. All nodes live
// in this process, but every message between them crosses a loopback
// socket.
func buildTCP(t *testing.T, name string) dht.DHT {
	t.Helper()
	tr := newTCPTransport(t)
	o, err := substrate.New(name, tr, overlay.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tcpNodes; i++ {
		id, err := tr.Reserve()
		if err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if _, err := o.AddNode(id); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	o.Stabilize(2)
	return o
}

func buildChordTCP(t *testing.T) dht.DHT { return buildTCP(t, "chord") }

func TestConformanceOverTCP(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed conformance is not short")
	}
	for _, name := range substrate.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dhttest.RunConformance(t, func(t *testing.T) dht.DHT { return buildTCP(t, name) })
		})
	}
}

func TestFaultToleranceOverTCP(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed fault suite is not short")
	}
	for _, name := range substrate.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dhttest.RunFaultTolerance(t, func(t *testing.T) dht.DHT { return buildTCP(t, name) })
		})
	}
}

// TestDecoratedStackOverTCP pins that the decorator stack — byte codec,
// retry layer, operation counters — composes over a socket-backed substrate
// exactly as it does in-process: the decorators only see the dht.DHT
// interface, so the transport underneath must be invisible to them.
func TestDecoratedStackOverTCP(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed stack suite is not short")
	}
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		var d dht.DHT = buildChordTCP(t)
		d = dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
		d = dht.NewCounting(d, nil)
		return d
	})
}

// TestRemoteApplyAtomicityOverTCP hammers the versioned-CAS path directly:
// concurrent increments of one counter key must all land, even though each
// transform runs client-side and races its peers for the install.
func TestRemoteApplyAtomicityOverTCP(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed atomicity suite is not short")
	}
	for _, name := range substrate.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := buildTCP(t, name)
			const workers, each = 8, 10
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func() {
					for i := 0; i < each; i++ {
						if err := d.Apply("counter", func(cur any, ok bool) (any, bool) {
							if !ok {
								return 1, true
							}
							return cur.(int) + 1, true
						}); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			v, ok, err := d.Get("counter")
			if err != nil || !ok {
				t.Fatalf("Get(counter) = %v, %v, %v", v, ok, err)
			}
			if v != workers*each {
				t.Errorf("counter = %v, want %d (lost increments over the wire)", v, workers*each)
			}
		})
	}
}

// TestByteDHTOverTCP sends opaque byte values through a socket-backed ring,
// the shape a Dial-based client actually uses.
func TestByteDHTOverTCP(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed wire suite is not short")
	}
	d := wire.NewByteDHT(buildChordTCP(t), transport.Codec{})
	if err := d.Put("k", []byte("opaque")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if string(v.([]byte)) != "opaque" {
		t.Errorf("value = %q", v)
	}
}
