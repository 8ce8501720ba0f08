package overlay

import (
	"fmt"

	"mlight/internal/dht"
)

// The member view: what a client-mode overlay knows of the ring before it
// sends its first RPC.
//
// An overlay with no local node (mlight.Dial) has no routing table, so a
// routed operation borrows one from a seed a hop at a time: on a four-daemon
// chord ring that is 2.7 routing round trips in front of every store RPC,
// spent re-discovering which of four daemons owns the key. The view holds the
// members the client has met — Config.Seeds, plus every owner a routed
// lookup returned, minus members whose call failed — and a store-plane
// request goes straight to the member Router.Closer ranks best for the key's
// hash, marked Direct. The receiver serves a marked request only if it owns
// the hash by its own routing state (NodeRouter.Owns) and otherwise answers
// declinedResp.
//
// It is a cache in front of routing, not a second path beside it. A declined
// or failed direct send is followed by exactly the routed code that ran
// before the view existed, and the lookup teaches the view the owner it
// found — so wrong picks are bounded by the number of distinct owners the
// client ever talks to, and the view by the same number: the size of its
// connection pool. The owner's check is as authoritative as the routing step
// it replaces: chord's last hop answers from the predecessor's successor
// pointer, the direct check from the owner's predecessor pointer; in pastry
// and kademlia both sides say "no peer I know is closer".
//
// An overlay that hosts a node never has a view (its nodes' routing tables
// are the better source), so simulations and the daemons themselves route
// exactly as before.

// declinedResp answers a Direct request at a node that does not own the key.
type declinedResp struct{}

// resetViewLocked starts the view over from the configured seeds, or removes
// it while the overlay hosts a node. A view is never empty. Callers hold
// o.mu (or, in New, the only reference).
func (o *Overlay) resetViewLocked() {
	if len(o.nodes) > 0 || len(o.seeds) == 0 {
		o.view.Store(nil)
		return
	}
	view := append([]Ref(nil), o.seeds...)
	o.view.Store(&view)
}

// learn adds a routed lookup's answer to the view.
func (o *Overlay) learn(r Ref) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.view.Load()
	if cur == nil {
		return
	}
	for _, m := range *cur {
		if m.Addr == r.Addr {
			return
		}
	}
	// Snapshots are immutable (pick reads them unlocked): copy, then append.
	next := append(append(make([]Ref, 0, len(*cur)+1), *cur...), r)
	o.view.Store(&next)
}

// forget drops a member whose call failed. If it was the last one the view
// starts over from the seeds: they are the only names left to try.
func (o *Overlay) forget(m Ref) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.view.Load()
	if cur == nil {
		return
	}
	next := make([]Ref, 0, len(*cur))
	for _, r := range *cur {
		if r.Addr != m.Addr {
			next = append(next, r)
		}
	}
	if len(next) == 0 {
		o.resetViewLocked()
		return
	}
	o.view.Store(&next)
}

// ViewSize returns how many members the client-mode view holds; zero for an
// overlay that hosts nodes.
func (o *Overlay) ViewSize() int {
	if view := o.view.Load(); view != nil {
		return len(*view)
	}
	return 0
}

// DirectSummary formats the direct-send counters and the view size for the
// commands that print them beside the route length.
func (o *Overlay) DirectSummary() string {
	return fmt.Sprintf("%d direct sends (%d declined, %d failed), view of %d",
		o.DirectSends.Load(), o.DirectDeclined.Load(), o.DirectFailed.Load(), o.ViewSize())
}

// pick returns the member of a non-empty view that ranks best as owner of
// hash h: nearest(view, h, 1) without the ranked buffer. Linear is right at
// the tens to hundreds of daemons a client dials.
//
//lint:hotpath
func (o *Overlay) pick(view []Ref, h dht.ID) Ref {
	best := view[0]
	for _, m := range view[1:] {
		if o.router.Closer(h, m.ID, best.ID) {
			best = m
		}
	}
	return best
}

// marked returns a store-plane request with its Direct mark set.
func marked(req any) any {
	switch r := req.(type) {
	case storeReq:
		r.Direct = true
		return r
	case retrieveReq:
		r.Direct = true
		return r
	case removeReq:
		r.Direct = true
		return r
	case dht.GetVerReq:
		r.Direct = true
		return r
	case opReq:
		r.Direct = true
		return r
	}
	// Sent unmarked the receiver would skip its ownership check.
	panic(fmt.Sprintf("overlay: %T cannot be sent direct", req))
}

// sendDirect sends req, marked, to view member m. served is false when the
// request was not answered there: m declined (err is nil: the request was not
// executed), or the call failed and m left the view (err says how: the request
// may have been executed, its reply lost).
func (o *Overlay) sendDirect(m Ref, req any) (resp any, served bool, err error) {
	o.DirectSends.Inc()
	resp, err = o.net.Call(o.client, m.Addr, marked(req))
	if err != nil {
		o.DirectFailed.Inc()
		o.forget(m)
		return nil, false, err
	}
	if _, declined := resp.(declinedResp); declined {
		o.DirectDeclined.Inc()
		return nil, false, nil
	}
	return resp, true, nil
}

// send delivers one store-plane request for hash h to the key's owner and
// returns who answered. An overlay that hosts nodes resolves the owner by
// routing. A client-mode overlay first tries the view member that ranks best
// for h. A declined direct send was not executed and is invisible to the
// caller — what follows is the routed path unchanged. So is a failed one when
// the request is safe to deliver twice (a store or remove repeats itself, a
// read only reads). An op is not: with once set a failed direct send is the
// call's outcome, the transport's retryable error, and whether to run the op
// again is the caller's decision (dht.Resilient's), as it is after a failed
// CASReq.
func (o *Overlay) send(h dht.ID, req any, once bool) (Ref, any, error) {
	if view := o.view.Load(); view != nil {
		m := o.pick(*view, h)
		if resp, served, err := o.sendDirect(m, req); served || (once && err != nil) {
			return m, resp, err
		}
	}
	owner, err := o.Lookup(h)
	if err != nil {
		return Ref{}, nil, err
	}
	resp, err := o.net.Call(o.client, owner.Addr, req)
	return owner, resp, err
}
