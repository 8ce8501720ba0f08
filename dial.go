package mlight

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/substrate"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// Client is a remote m-LIGHT index handle produced by Dial. It embeds the
// same *Index the in-process constructors return — every Querier method
// (Insert, Delete, RangeQuery, Stats) plus the Index extensions (Writer,
// Nearest, ShapeQuery) work identically; the only difference is that each
// DHT operation crosses framed TCP connections to the daemon cluster
// instead of staying in this process.
type Client struct {
	*Index
	tr      transport.Interface
	owns    bool // Dial created tr, so Close tears it down
	overlay *Overlay
}

// Overlay returns the client-mode overlay beneath the index: its routing
// counters (Lookups, Hops) and the direct-send counters and view size that
// say how often the client reached a key's owner without routing first.
func (c *Client) Overlay() *Overlay { return c.overlay }

// Close releases the client's network resources. The transport is closed
// only when Dial created it; a transport supplied via WithTransport stays
// open — it is caller-owned and may be shared with other clients.
func (c *Client) Close() error {
	if !c.owns {
		return nil
	}
	if closer, ok := c.tr.(interface{ Close() error }); ok {
		return closer.Close()
	}
	return nil
}

// Dial connects to a running mlightd cluster and returns an index client
// backed by it. addrs lists one or more daemon listen addresses
// ("host:port"); they are the client's first view of the cluster, so any
// live subset suffices — more addresses mean fewer wrong first guesses and
// more routes that survive individual daemon failures. The client learns
// the other daemons as it resolves owners and drops the ones that stop
// answering; an operation on a key whose owner it knows costs one store RPC,
// with no routing round trips in front — a read fetches the bucket, an insert
// or delete sends the record and gets the outcome back (the owner runs the
// transform; the bucket does not travel).
//
// Dial accepts the same options as New, plus two client-side ones:
// WithTransport substitutes a caller-owned RPC transport for the TCP
// transport Dial otherwise creates, and WithSubstrate names the overlay
// protocol the cluster runs ("chord", the default, "pastry", or
// "kademlia") — it must match the daemons' -substrate flag. All other
// options configure this client's view of the index (cache size, retry
// policy, tracing, query parallelism); node-side behaviour — replication
// factor, stabilization cadence, durability — was fixed when the daemons
// started and cannot be changed from here.
//
// The decorator stack composes over the remote transport unchanged:
// WithRetry interposes the resilient layer, WithTrace records every remote
// operation, WithCache caches leaf labels client-side. Values cross the
// wire in the compact bucket format (the same wire.BucketCodec the ByteDHT
// decorator uses), so daemons never need this client's Go types.
//
// Dial bootstraps the index root if the cluster does not hold one yet, so
// the first client to reach a fresh cluster initialises it.
func Dial(addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mlight: Dial needs at least one daemon address")
	}
	tuning := index.Resolve(opts...)

	tr := tuning.Transport
	var owned *transport.TCP
	if tr == nil {
		owned = transport.NewTCP(transport.TCPOptions{})
		tr = owned
	}
	abort := func() {
		if owned != nil {
			//lint:allow droppederr the dial error is what the caller needs
			owned.Close()
		}
	}
	seeds := make([]transport.NodeID, len(addrs))
	for i, a := range addrs {
		seeds[i] = transport.NodeID(a)
	}

	// A client-mode overlay: zero local nodes. It keeps a view of the
	// daemons it has met — these addresses, then every owner a lookup
	// resolves — and sends each operation straight to the one that should
	// own the key; the daemon checks, and a wrong guess is routed through the
	// view like any lookup.
	o, err := substrate.New(tuning.Substrate, tr, overlay.Config{Seed: tuning.Seed, Seeds: seeds})
	if err != nil {
		abort()
		return nil, fmt.Errorf("mlight: %w", err)
	}

	// Buckets cross the wire as compact bytes, exactly as over a real
	// byte-oriented DHT service.
	d := wire.NewByteDHT(o, wire.BucketCodec{})
	ix, err := core.New(d, tuning)
	if err != nil {
		abort()
		return nil, fmt.Errorf("mlight: dial %v: %w", addrs, err)
	}
	return &Client{Index: ix, tr: tr, owns: owned != nil, overlay: o}, nil
}

var _ Querier = (*Client)(nil)
