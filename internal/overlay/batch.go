package overlay

import "mlight/internal/dht"

// The batch read: dht.Batcher for all three protocols.
//
// A round of a range query is a handful of independent reads (core/range.go),
// and a dialed client knows — as well as it knows anything, view.go — which
// daemon owns each. Sent one by one they are one frame, one handler wake-up
// and four system calls apiece; grouped by the view member pick ranks best,
// an owner's keys cross as one retrieveBatchReq and come back as one
// retrieveBatchResp, so a round costs at most one frame per owner it touches.
//
// It is the direct send with more than one key in it, and it keeps the direct
// send's bargain key by key: the receiver serves the keys it owns and declines
// the others (Node.retrieveBatch), and a failed call drops the member from the
// view. Whatever the frame did not answer — a declined key, every key of a
// failed call — is then read by Get, one key at a time, exactly as if the
// batch had never been tried: the first key a joiner took over is declined
// once more and routed, which teaches the view the joiner, and the rest of
// them go to it direct. A lone key takes that path to begin with — there is
// nothing to group.
//
// An overlay that hosts nodes has no view to group by (its nodes' routing
// tables resolve owners), so there a batch is one Get per key, overlapped:
// what the range engine's own worker pool did before rounds became calls.

// maxBatchKeys caps the keys of one retrieveBatchReq, and with them the reply:
// at a few kilobytes a bucket, 64 values stay two orders of magnitude under
// transport.MaxFrameSize. An owner with more keys in a round gets more frames.
const maxBatchKeys = 64

var _ dht.Batcher = (*Overlay)(nil)

// keyGroup is the keys of one batch that go to one view member in one frame,
// by position.
type keyGroup struct {
	member Ref
	at     []int
}

// GetBatch implements dht.Batcher. Results are positional.
func (o *Overlay) GetBatch(keys []dht.Key, maxInFlight int) []dht.BatchResult {
	view := o.view.Load()
	if view == nil || len(keys) < 2 {
		return dht.FanGets(o, keys, maxInFlight)
	}
	var groups []keyGroup
	for i, key := range keys {
		m := o.pick(*view, dht.HashKey(key))
		g := 0
		for g < len(groups) && (groups[g].member.Addr != m.Addr || len(groups[g].at) == maxBatchKeys) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, keyGroup{member: m})
		}
		groups[g].at = append(groups[g].at, i)
	}
	results := make([]dht.BatchResult, len(keys))
	dht.Fan(len(groups), maxInFlight, func(g int) { o.getGroup(groups[g], keys, results) })
	return results
}

// getGroup fills the results of one group's keys.
func (o *Overlay) getGroup(g keyGroup, keys []dht.Key, results []dht.BatchResult) {
	var items []retrieveItem
	if len(g.at) > 1 {
		sub := make([]dht.Key, len(g.at))
		for j, i := range g.at {
			sub[j] = keys[i]
		}
		items = o.retrieveFrom(g.member, sub)
	}
	for j, i := range g.at {
		r := &results[i]
		if items == nil || items[j].Declined {
			// A lone key, a key the member does not own, or a member that
			// failed the call and left the view: the single-key path, which
			// routes what it cannot send direct and teaches the view.
			r.Value, r.Found, r.Err = o.Get(keys[i])
		} else {
			r.Value, r.Found = items[j].Value, items[j].Found
		}
	}
}

// retrieveFrom reads keys at view member m in one frame. It returns nil when
// the call failed — m is then forgotten, as sendDirect forgets it — and a
// reply that is not one item per key is a failed call too: the caller never
// sees part of an answer. The direct-send counters count keys, not frames, so
// sends minus declined minus failed stays the number of lookups saved.
func (o *Overlay) retrieveFrom(m Ref, keys []dht.Key) []retrieveItem {
	o.DirectSends.Add(int64(len(keys)))
	respAny, err := o.net.Call(o.client, m.Addr, retrieveBatchReq{Keys: keys, Direct: true})
	resp, ok := respAny.(retrieveBatchResp)
	if err != nil || !ok || len(resp.Items) != len(keys) {
		o.DirectFailed.Add(int64(len(keys)))
		o.forget(m)
		return nil
	}
	for _, it := range resp.Items {
		if it.Declined {
			o.DirectDeclined.Inc()
		}
	}
	return resp.Items
}
