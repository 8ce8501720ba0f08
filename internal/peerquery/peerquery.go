// Package peerquery executes m-LIGHT range queries the way the paper's
// deployment does: Algorithm 3's recursive forwarding runs ON the peers
// that own the buckets, as installed application handlers (the over-DHT
// pattern OpenDHT enables), not as client-driven recursion. A query is one
// network message to the corner cell of the range's LCA; each reached peer
// reads its bucket from its own local store, asks the range planner of
// internal/core — the one the client-driven engine runs — which records
// match and which subranges remain, and forwards those to the next peers
// itself.
//
// Because forwarding happens between real simulated peers, the service can
// measure true critical-path latency under the network's latency model —
// milliseconds, not just rounds: every forward pays the DHT-lookup hops
// from the forwarding peer plus the one-way delivery delay, and parallel
// branches contribute their maximum.
package peerquery

import (
	"fmt"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/spatial"
	"mlight/internal/transport"
)

// clientAddr is the query initiator's network address.
const clientAddr transport.NodeID = "peerquery-client"

// forwardReq asks the peer owning bucket key fmd(Beta) to resolve Query
// against the subtree rooted at Beta.
type forwardReq struct {
	Query spatial.Rect
	Beta  bitlabel.Label
}

// forwardResp carries the records found under the subtree plus the cost of
// resolving it: DHT-lookup count (bandwidth) and the critical-path time
// spent AFTER this peer received the request (latency).
type forwardResp struct {
	Records  []spatial.Record
	Lookups  int
	Critical time.Duration
}

// Result is a peer-executed range-query answer.
type Result struct {
	Records []spatial.Record
	// Lookups counts DHT-lookup operations across all peers (bandwidth).
	Lookups int
	// Latency is the critical-path simulated time from query start to the
	// last subrange's completion, under the network's latency model.
	Latency time.Duration
}

// Service installs and drives peer-side query execution over an overlay of
// any protocol, on any transport (latencies are the transport's modeled
// one-way delays; a transport without a latency model reports zero).
type Service struct {
	ring     *overlay.Overlay
	net      transport.Interface
	dims     int
	maxDepth int
}

// New creates the service and installs its handler on every current node
// of the overlay. The dims/maxDepth must match the index stored in it.
func New(ring *overlay.Overlay, net transport.Interface, dims, maxDepth int) (*Service, error) {
	if dims < 1 {
		return nil, fmt.Errorf("peerquery: dims must be ≥ 1, got %d", dims)
	}
	if maxDepth < 1 || dims+1+maxDepth > bitlabel.MaxLen {
		return nil, fmt.Errorf("peerquery: maxDepth %d out of range for m=%d", maxDepth, dims)
	}
	s := &Service{ring: ring, net: net, dims: dims, maxDepth: maxDepth}
	s.Reinstall()
	return s, nil
}

// Reinstall re-installs the handler on every managed node (call after
// membership changes add nodes).
func (s *Service) Reinstall() {
	s.ring.InstallAppHandler(func(n *overlay.Node) transport.Handler {
		return &peerHandler{service: s, node: n}
	})
}

// peerHandler runs on one overlay node.
type peerHandler struct {
	service *Service
	node    *overlay.Node
}

// HandleRPC implements transport.Handler for the application layer.
func (h *peerHandler) HandleRPC(from transport.NodeID, req any) (any, error) {
	r, ok := req.(forwardReq)
	if !ok {
		return nil, fmt.Errorf("peerquery: %s: unknown request %T", h.node.Addr(), req)
	}
	return h.service.resolveAt(h.node, r)
}

// bucketKey mirrors the index's key derivation for a node label.
func bucketKey(l bitlabel.Label, m int) dht.Key {
	return core.Bucket{Label: l}.Key(m)
}

// resolveAt executes one planner step (Algorithm 3) at the peer owning
// fmd(Beta)'s bucket and forwards the pieces it yields.
func (s *Service) resolveAt(node *overlay.Node, req forwardReq) (forwardResp, error) {
	var b core.Bucket
	var resp forwardResp
	if v, ok := node.LocalGet(bucketKey(req.Beta, s.dims)); ok {
		if b, ok = v.(core.Bucket); !ok {
			return forwardResp{}, fmt.Errorf("peerquery: key for %v holds %T", req.Beta, v)
		}
	} else {
		// The subtree node is not materialised (β not internal): the range
		// lies inside a leaf somewhere above; fall back to a client-style
		// lookup from this peer. Rare in a consistent index.
		var err error
		if b, resp, err = s.fallbackLookup(node, req); err != nil {
			return forwardResp{}, err
		}
	}
	records, pieces, err := core.Step(b, req.Beta, req.Query, 1, s.dims, s.maxDepth, nil)
	if err != nil {
		return forwardResp{}, err
	}
	resp.Records = records
	for _, p := range pieces {
		child, err := s.forward(node.Addr(), forwardReq{Query: p.Q, Beta: p.Node})
		if err != nil {
			return forwardResp{}, err
		}
		resp.Records = append(resp.Records, child.Records...)
		resp.Lookups += child.Lookups
		if child.Critical > resp.Critical {
			resp.Critical = child.Critical // parallel branches
		}
	}
	return resp, nil
}

// forward routes a subquery from one peer to the owner of the branch
// node's bucket key: a DHT-lookup (hops × RTT) followed by one delivery,
// then the remote resolution. The returned Critical covers all of it.
func (s *Service) forward(from transport.NodeID, req forwardReq) (forwardResp, error) {
	key := bucketKey(req.Beta, s.dims)
	owner, hops, err := s.ring.LookupFrom(from, key)
	if err != nil {
		return forwardResp{}, fmt.Errorf("peerquery: lookup %v: %w", req.Beta, err)
	}
	lookupTime := time.Duration(hops) * 2 * s.net.OneWayLatency(from, owner)
	respAny, err := s.net.Call(from, owner, req)
	if err != nil {
		return forwardResp{}, err
	}
	resp, ok := respAny.(forwardResp)
	if !ok {
		if e, isErr := respAny.(error); isErr {
			return forwardResp{}, e
		}
		return forwardResp{}, fmt.Errorf("peerquery: bad response %T", respAny)
	}
	resp.Lookups++ // this forward's DHT-lookup
	resp.Critical += lookupTime + s.net.OneWayLatency(from, owner)
	return resp, nil
}

// fallbackLookup finds the covering leaf by corner lookup through the ring
// (sequential probes from this peer); the returned response carries the
// walk's cost.
func (s *Service) fallbackLookup(node *overlay.Node, req forwardReq) (core.Bucket, forwardResp, error) {
	m := s.dims
	corner := req.Query.Lo
	path, err := bitlabel.PathLabel(corner, s.maxDepth)
	if err != nil {
		return core.Bucket{}, forwardResp{}, err
	}
	resp := forwardResp{}
	// Walk candidate ancestors of β upward until a bucket covers the query.
	for j := req.Beta.Len(); j >= m+1; j-- {
		cand := path.Prefix(minInt(j, path.Len()))
		key := bucketKey(cand, m)
		owner, hops, err := s.ring.LookupFrom(node.Addr(), key)
		if err != nil {
			return core.Bucket{}, forwardResp{}, err
		}
		resp.Lookups++
		resp.Critical += time.Duration(hops)*2*s.net.OneWayLatency(node.Addr(), owner) +
			2*s.net.OneWayLatency(node.Addr(), owner)
		n, ok := s.ring.NodeAt(owner)
		if !ok {
			continue
		}
		if v, found := n.LocalGet(key); found {
			if b, isBucket := v.(core.Bucket); isBucket && b.Label.IsPrefixOf(path) {
				return b, resp, nil
			}
		}
	}
	return core.Bucket{}, resp, fmt.Errorf("peerquery: no leaf covers %v", req.Query)
}

// RangeQuery runs a peer-executed range query: the initiator computes the
// LCA locally, routes one message to the LCA's corner-cell peer, and the
// peers do the rest.
func (s *Service) RangeQuery(q spatial.Rect) (*Result, error) {
	lca, err := core.QueryLCA(q, s.dims, s.maxDepth)
	if err != nil {
		return nil, err
	}
	entry := s.entryAddr()
	if entry == "" {
		return nil, dht.ErrNoPeers
	}
	resp, err := s.forward(entry, forwardReq{Query: q, Beta: lca})
	if err != nil {
		return nil, err
	}
	return &Result{Records: resp.Records, Lookups: resp.Lookups, Latency: resp.Critical}, nil
}

// entryAddr picks the initiating peer (the first managed node).
func (s *Service) entryAddr() transport.NodeID {
	nodes := s.ring.Nodes()
	if len(nodes) == 0 {
		return ""
	}
	return nodes[0]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
