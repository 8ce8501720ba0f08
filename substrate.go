package mlight

import (
	"fmt"
	"time"

	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
)

// Substrate types, aliased so applications can manage overlays through the
// public API.
type (
	// Network is the deterministic message-level network simulator.
	Network = simnet.Network
	// NodeID identifies a peer on the simulated network.
	NodeID = simnet.NodeID
	// Overlay is a managed structured overlay (implements DHT): one kernel
	// of storage, replication and membership, running whichever routing
	// protocol it was built with.
	Overlay = overlay.Overlay
	// ChordRing is an Overlay running Chord routing.
	ChordRing = Overlay
	// PastryOverlay is an Overlay running Pastry/Bamboo-style routing.
	PastryOverlay = Overlay
	// KademliaOverlay is an Overlay running Kademlia routing.
	KademliaOverlay = Overlay
)

// NewNetwork creates an empty simulated network with zero latency and no
// loss. Use the simnet package directly for latency/loss models.
func NewNetwork() *Network {
	return simnet.New(simnet.Options{})
}

// newCluster builds a ready-to-use overlay of the named protocol on net: n
// joined, stabilized peers named "node-0" … "node-(n-1)".
func newCluster(name string, net *Network, n, replication int, seed int64) (*Overlay, *Network, error) {
	o, err := substrate.Cluster(name, net, n, overlay.Config{Seed: seed, Replication: replication})
	if err != nil {
		return nil, nil, fmt.Errorf("mlight: %w", err)
	}
	return o, net, nil
}

// NewChordCluster builds a ready-to-use Chord DHT: a fresh simulated
// network with n joined, stabilized peers named "node-0" … "node-(n-1)".
func NewChordCluster(n int, seed int64) (*ChordRing, *Network, error) {
	return NewReplicatedChordCluster(n, 1, seed)
}

// NewReplicatedChordCluster is NewChordCluster with a replication factor:
// every key is copied to the next replication-1 successors, so the ring
// tolerates up to replication-1 crashes between stabilization rounds with
// no data loss.
func NewReplicatedChordCluster(n, replication int, seed int64) (*ChordRing, *Network, error) {
	return newCluster("chord", NewNetwork(), n, replication, seed)
}

// NewChordClusterWithLatency is NewChordCluster over a latency-bearing
// network: once the cluster is built, every overlay RPC blocks the calling
// goroutine for a round trip of 2×hopDelay (the one-way delay each way).
// This is the wall-clock latency testbed for the concurrent query engine:
// sequential DHT probes pay their delays back to back, concurrent probes
// overlap. Joining and stabilization run with delays suppressed (they issue
// thousands of RPCs); call net.SetRealDelay(false) to suspend enforcement
// again around bulk loads.
func NewChordClusterWithLatency(n int, seed int64, hopDelay time.Duration) (*ChordRing, *Network, error) {
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(hopDelay)})
	ring, net, err := newCluster("chord", net, n, 1, seed)
	if err == nil {
		net.SetRealDelay(true)
	}
	return ring, net, err
}

// NewPastryCluster builds a ready-to-use Pastry/Bamboo-style DHT: a fresh
// simulated network with n joined, stabilized peers.
func NewPastryCluster(n int, seed int64) (*PastryOverlay, *Network, error) {
	return NewReplicatedPastryCluster(n, 1, seed)
}

// NewKademliaCluster builds a ready-to-use Kademlia DHT: a fresh simulated
// network with n joined, stabilized peers.
func NewKademliaCluster(n int, seed int64) (*KademliaOverlay, *Network, error) {
	return NewReplicatedKademliaCluster(n, 1, seed)
}

// NewReplicatedPastryCluster is NewPastryCluster with PAST/Bamboo-style
// leaf-set replication: each key is copied to the replication-1 leaf-set
// members of its owner nearest the key.
func NewReplicatedPastryCluster(n, replication int, seed int64) (*PastryOverlay, *Network, error) {
	return newCluster("pastry", NewNetwork(), n, replication, seed)
}

// NewReplicatedKademliaCluster is NewKademliaCluster with the original
// paper's placement rule: every key is stored at the replication closest
// nodes.
func NewReplicatedKademliaCluster(n, replication int, seed int64) (*KademliaOverlay, *Network, error) {
	return newCluster("kademlia", NewNetwork(), n, replication, seed)
}
