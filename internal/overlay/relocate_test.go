package overlay

import (
	"fmt"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// offerNet carries offers and notes, for each, whether the offering node's
// store lock was free while the call was in flight.
type offerNet struct {
	transport.Interface
	holder *Node
	offers int
	held   int
}

func (n *offerNet) Call(_, _ transport.NodeID, req any) (any, error) {
	if _, ok := req.(offerReq); !ok {
		return nil, fmt.Errorf("offerNet: unexpected %T", req)
	}
	n.offers++
	if n.holder.mu.TryLock() {
		n.holder.mu.Unlock()
	} else {
		n.held++
	}
	return nil, nil
}

// TestRelocationHoldsNoLockAcrossTheOffer: a node offers an expired replica
// to the key's owner with its own store lock released. Held across the
// call, it would stall every RPC the node serves for a network round trip,
// and two nodes offering to each other at once would deadlock.
func TestRelocationHoldsNoLockAcrossTheOffer(t *testing.T) {
	net := &offerNet{holder: &Node{addr: "holder"}}
	o := New(net, Config{}, "scripted", 1, func(*Overlay) Router {
		return oneOwner{owner: RefOf("owner")}
	})
	net.holder.handleReplicate(map[dht.Key]any{"k": 1})
	net.holder.repRound = replicaGraceRounds
	o.relocateStaleReplicas(net.holder)
	if net.offers != 1 {
		t.Fatalf("%d offers for one expired replica, want 1", net.offers)
	}
	if net.held != 0 {
		t.Errorf("the holder's lock was held across its offer")
	}
}
