// Package substrate is the one place that maps an overlay protocol's name
// to its constructor. Everything that lets a user pick a protocol by name —
// the daemon's -substrate flag, mlight.Dial's WithSubstrate, mlight-sim's
// -overlay — resolves it here and from then on holds the kernel type.
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
