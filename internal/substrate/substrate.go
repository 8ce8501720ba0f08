// Package substrate is the one place that maps an overlay protocol's name
// to its constructor. Everything that lets a user pick a protocol by name —
// the daemon's -substrate flag, mlight.Dial's WithSubstrate, mlight-sim's
// -overlay — resolves it here and from then on holds the kernel type. It
// also holds the one builder of a populated simulation cluster (Cluster).
package substrate

import (
	"fmt"

	"mlight/internal/chord"
	"mlight/internal/kademlia"
	"mlight/internal/overlay"
	"mlight/internal/pastry"
	"mlight/internal/transport"
)

// Names lists the protocols New accepts. The first is the default.
var Names = []string{"chord", "pastry", "kademlia"}

// New creates an empty overlay of the named protocol on net. The empty name
// selects chord.
func New(name string, net transport.Interface, cfg overlay.Config) (*overlay.Overlay, error) {
	switch name {
	case "", "chord":
		return chord.NewRing(net, cfg), nil
	case "pastry":
		return pastry.NewOverlay(net, cfg), nil
	case "kademlia":
		return kademlia.NewOverlay(net, kademlia.Config{Config: cfg}), nil
	default:
		return nil, fmt.Errorf("unknown substrate %q (want chord, pastry or kademlia)", name)
	}
}

// Cluster builds a ready-to-use overlay of the named protocol on net: n
// joined, stabilized peers named "node-0" … "node-(n-1)".
func Cluster(name string, net transport.Interface, n int, cfg overlay.Config) (*overlay.Overlay, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster needs at least one peer, got %d", n)
	}
	o, err := New(name, net, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := o.AddNode(transport.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			return nil, fmt.Errorf("%s cluster: %w", name, err)
		}
	}
	o.Stabilize(2)
	return o, nil
}
