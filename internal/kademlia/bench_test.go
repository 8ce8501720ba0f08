package kademlia

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
)

// benchOverlay builds a preloaded 16-node overlay in the given lookup mode.
func benchOverlay(b *testing.B, serial bool, keys int) *Overlay {
	b.Helper()
	net := simnet.New(simnet.Options{Seed: 3})
	o := NewOverlay(net, Config{Config: overlay.Config{Seed: 1}, Serial: serial})
	for i := 0; i < 16; i++ {
		if _, err := o.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			b.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	o.Stabilize(2)
	for i := 0; i < keys; i++ {
		if err := o.Put(dht.Key(fmt.Sprintf("bench-%d", i)), i); err != nil {
			b.Fatalf("Put(%d): %v", i, err)
		}
	}
	return o
}

// BenchmarkIterativeLookup measures one overlay Get end to end, comparing
// the serial one-RPC-at-a-time iterative round against the α-parallel round
// (concurrent candidate RPCs per round, identical accounting).
func BenchmarkIterativeLookup(b *testing.B) {
	const keys = 32
	for _, mode := range []struct {
		name   string
		serial bool
	}{
		{"serial", true},
		{"alpha-parallel", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			o := benchOverlay(b, mode.serial, keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := dht.Key(fmt.Sprintf("bench-%d", i%keys))
				v, ok, err := o.Get(k)
				if err != nil || !ok || v != i%keys {
					b.Fatalf("Get(%q) = %v, %v, %v", k, v, ok, err)
				}
			}
		})
	}
}
