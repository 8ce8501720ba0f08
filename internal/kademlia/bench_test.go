package kademlia

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/simnet"
)

// benchOverlay builds a preloaded 16-node overlay.
func benchOverlay(b *testing.B, keys int) *Overlay {
	b.Helper()
	net := simnet.New(simnet.Options{Seed: 3})
	o := NewOverlay(net, Config{Seed: 1})
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

// BenchmarkIterativeLookup measures one overlay Get end to end: the
// α-parallel iterative lookup, the liveness probe and the read.
func BenchmarkIterativeLookup(b *testing.B) {
	const keys = 32
	o := benchOverlay(b, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := dht.Key(fmt.Sprintf("bench-%d", i%keys))
		v, ok, err := o.Get(k)
		if err != nil || !ok || v != i%keys {
			b.Fatalf("Get(%q) = %v, %v, %v", k, v, ok, err)
		}
	}
}
