package dhttest

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
)

// batchKeys is what a batch case reads: every loaded key in sorted order with
// an absent key after every tenth, so found and not-found results alternate
// inside every owner's share.
func batchKeys(want map[dht.Key]int) []dht.Key {
	loaded := make([]dht.Key, 0, len(want))
	for k := range want {
		loaded = append(loaded, k)
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i] < loaded[j] })
	var keys []dht.Key
	for i, k := range loaded {
		keys = append(keys, k)
		if i%10 == 9 {
			keys = append(keys, dht.Key(fmt.Sprintf("absent-%d", i)))
		}
	}
	return keys
}

// checkBatch holds GetBatch to the contract: result i is what Get(keys[i])
// returns — here the loaded value, or not found.
func checkBatch(t *testing.T, stage string, keys []dht.Key, got []dht.BatchResult, want map[dht.Key]int) {
	t.Helper()
	if len(got) != len(keys) {
		t.Fatalf("%s: %d results for %d keys", stage, len(got), len(keys))
	}
	for i, k := range keys {
		v, loaded := want[k]
		switch r := got[i]; {
		case r.Err != nil:
			t.Fatalf("%s: result %d (%q): %v", stage, i, k, r.Err)
		case r.Found != loaded || (loaded && r.Value != v):
			t.Fatalf("%s: result %d (%q) = %v, %v; want %d, %v", stage, i, k, r.Value, r.Found, v, loaded)
		}
	}
}

// owners groups keys by their routed owner.
func (c *cluster) owners(t *testing.T, keys []dht.Key) map[string][]dht.Key {
	t.Helper()
	by := make(map[string][]dht.Key)
	for _, k := range keys {
		owner, err := c.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%q): %v", k, err)
		}
		by[owner] = append(by[owner], k)
	}
	return by
}

// perFrame is the overlay's cap on the keys of one batch frame
// (overlay.maxBatchKeys).
const perFrame = 64

// frames is what reading keys costs a client whose view names every owner:
// one call per owner, one more for every perFrame keys an owner holds beyond
// the first perFrame.
func (c *cluster) frames(t *testing.T, keys []dht.Key) int {
	t.Helper()
	n := 0
	for _, share := range c.owners(t, keys) {
		n += (len(share) + perFrame - 1) / perFrame
	}
	return n
}

// batchFrames counts the batch frames a client sends from now on.
func (d dialed) batchFrames() *atomic.Int64 {
	var frames atomic.Int64
	d.net.lose = func(req any) bool {
		if fmt.Sprintf("%T", req) == "overlay.retrieveBatchReq" {
			frames.Add(1)
		}
		return false
	}
	return &frames
}

// RunBatch pins dht.Batcher on one protocol. A client that knows the owners
// reads a batch in one frame per owner; each result is what a single Get of
// its key returns, by position; a stale view costs the moved keys a decline
// and nobody else anything; a dead member is forgotten and its keys answer
// all the same; and an overlay that hosts nodes sends no batch frame at all.
func RunBatch(t *testing.T, f OverlayFixture) {
	t.Helper()

	t.Run("OneFramePerOwner", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{})
		want := c.load(t, "bk", 120)
		keys := batchKeys(want)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		frames := d.batchFrames()
		var got []dht.BatchResult
		calls := d.rpcs(func() { got = d.GetBatch(keys, 8) })
		checkBatch(t, "complete view", keys, got, want)
		for i, k := range keys {
			v, found, err := d.Get(k)
			if r := got[i]; err != nil || r.Value != v || r.Found != found {
				t.Fatalf("result %d = %v, %v but Get(%q) = %v, %v, %v", i, r.Value, r.Found, k, v, found, err)
			}
		}
		// One call per owner touched (a frame where it has two keys or more),
		// however many probes the round has.
		if int(calls) != c.frames(t, keys) || frames.Load() > calls {
			t.Errorf("%d keys over %d owners cost %d calls (%d batch frames), want one per owner", len(keys), len(c.owners(t, keys)), calls, frames.Load())
		}
		if d.Lookups.Load() != 0 || d.DirectDeclined.Load() != 0 || d.DirectFailed.Load() != 0 {
			t.Errorf("a batch over a complete view routed or was refused: %d lookups, %s", d.Lookups.Load(), d.DirectSummary())
		}
		// The degenerate batches take the single-key path.
		if got := d.GetBatch(nil, 8); len(got) != 0 {
			t.Errorf("empty batch returned %d results", len(got))
		}
		before := frames.Load()
		checkBatch(t, "one key", keys[:1], d.GetBatch(keys[:1], 8), want)
		if frames.Load() != before {
			t.Error("a one-key batch was framed as a batch")
		}
	})

	t.Run("FramesAreCapped", func(t *testing.T) {
		c := f.build(t, 2, overlay.Config{})
		want := c.load(t, "ck", 300)
		keys := batchKeys(want)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		var got []dht.BatchResult
		calls := d.rpcs(func() { got = d.GetBatch(keys, 8) })
		checkBatch(t, "two owners", keys, got, want)
		wantCalls := c.frames(t, keys)
		if int(calls) != wantCalls || wantCalls < 4 {
			t.Errorf("%d keys on two owners cost %d calls, want %d (at most %d keys a frame)", len(keys), calls, wantCalls, perFrame)
		}
	})

	t.Run("HostedSendsNoBatchFrame", func(t *testing.T) {
		c := f.build(t, 5, overlay.Config{})
		want := c.load(t, "hk", 100)
		keys := batchKeys(want)
		// A second process's overlay: it joins the cluster with one node of
		// its own, so it routes from that node's table and has no view.
		host := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		if _, err := host.AddNode(c.mint(len(c.addrs))); err != nil {
			t.Fatal(err)
		}
		host.Stabilize(2)
		c.Stabilize(2)
		frames := host.batchFrames()
		checkBatch(t, "hosting overlay", keys, host.GetBatch(keys, 8), want)
		checkBatch(t, "hosting overlay, sequential", keys, host.GetBatch(keys, 1), want)
		if frames.Load() != 0 || host.ViewSize() != 0 || host.DirectSends.Load() != 0 {
			t.Errorf("an overlay hosting a node sent %d batch frames (%s)", frames.Load(), host.DirectSummary())
		}
	})

	t.Run("JoinDeclinesOnlyMovedKeys", func(t *testing.T) {
		c := f.build(t, 5, overlay.Config{})
		want := c.load(t, "jk", 300)
		keys := batchKeys(want)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		checkBatch(t, "before the join", keys, d.GetBatch(keys, 8), want)
		var moved []dht.Key
		for tries := 0; len(moved) < 2 && tries < 4; tries++ {
			moved = c.ownedBy(t, want, c.join(t).Addr())
		}
		if len(moved) < 2 {
			t.Fatal("four joiners took over fewer than two of 300 keys")
		}
		declined, lookups := d.DirectDeclined.Load(), d.Lookups.Load()
		checkBatch(t, "after the join", keys, d.GetBatch(keys, 8), want)
		// Each moved key is declined in its frame. Read again one by one, the
		// first of them (per frame in flight) is declined once more, routed,
		// and teaches the view the joiner; the others go to it direct.
		newDeclined, newLookups := d.DirectDeclined.Load()-declined, d.Lookups.Load()-lookups
		if newDeclined <= int64(len(moved)) || newDeclined > int64(2*len(moved)) {
			t.Errorf("%d keys moved to joiners and %d sends were declined, want each declined once in its frame and at most once more", len(moved), newDeclined)
		}
		if newLookups < 1 || newLookups > int64(len(moved)) {
			t.Errorf("%d lookups after %d keys moved: only moved keys may be routed", newLookups, len(moved))
		}
		if d.DirectFailed.Load() != 0 {
			t.Errorf("a join failed a batch: %s", d.DirectSummary())
		}
		declined, lookups = d.DirectDeclined.Load(), d.Lookups.Load()
		var got []dht.BatchResult
		calls := d.rpcs(func() { got = d.GetBatch(keys, 8) })
		checkBatch(t, "joiners learned", keys, got, want)
		if d.DirectDeclined.Load() != declined || d.Lookups.Load() != lookups || int(calls) != c.frames(t, keys) {
			t.Errorf("second batch after the join cost %d calls, %d declined, %d lookups; want one call per owner and nothing refused",
				calls, d.DirectDeclined.Load()-declined, d.Lookups.Load()-lookups)
		}
	})

	t.Run("DeadMemberIsForgotten", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{Replication: 2})
		want := c.load(t, "dk", 200)
		keys := batchKeys(want)
		c.Stabilize(2) // settle replica placement
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		victim := c.loaded(t).Addr()
		orphans := len(c.owners(t, keys)[string(victim)])
		if orphans < 2 {
			t.Fatalf("victim owns %d of the batch's keys, the case needs a frame", orphans)
		}
		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		c.Stabilize(3) // failover: the replica holders promote
		checkBatch(t, "owner crashed", keys, d.GetBatch(keys, 8), want)
		if failed, size := d.DirectFailed.Load(), d.ViewSize(); failed != int64(orphans) || size != 5 {
			t.Errorf("after a batch picked the crashed member for %d keys: %s; want them failed and a view of 5", orphans, d.DirectSummary())
		}
		failed := d.DirectFailed.Load()
		var got []dht.BatchResult
		calls := d.rpcs(func() { got = d.GetBatch(keys, 8) })
		checkBatch(t, "heirs learned", keys, got, want)
		if d.DirectFailed.Load() != failed || int(calls) != c.frames(t, keys) {
			t.Errorf("second batch after the crash cost %d calls (%s), want one per surviving owner", calls, d.DirectSummary())
		}
	})
}
