// The RPC budget of the dialed path, pinned through mlight.Dial itself: what a
// warm-cache insert and delete cost a client in frames and bytes. The
// benchmark harness cannot say yet (its traced stack takes the closure path,
// DESIGN §17), so this test and BenchmarkDialedInsert are where the numbers
// the README quotes come from.
package mlight_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mlight"
	"mlight/internal/daemon"
	"mlight/internal/dht/dhttest"
	"mlight/internal/spatial"
	"mlight/internal/transport"
)

// wireCount counts what a client puts on the wire: calls by request type, and
// the encoded size of every request and reply (the frame header's dozen bytes
// not included). Sizing marshals each value a second time: ns/op measured
// through it is inflated.
type wireCount struct {
	transport.Interface

	mu     sync.Mutex
	byType map[string]int
	calls  int
	bytes  int
}

func (w *wireCount) Call(from, to transport.NodeID, req any) (any, error) {
	resp, err := w.Interface.Call(from, to, req)
	var n int
	for _, v := range []any{req, resp} {
		if data, merr := transport.Marshal(v); merr == nil {
			n += len(data)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.byType == nil {
		w.byType = make(map[string]int)
	}
	w.byType[reflect.TypeOf(req).String()]++
	w.calls++
	w.bytes += n
	return resp, err
}

// take returns the counts since the last take.
func (w *wireCount) take() (calls, bytes int, byType map[string]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	calls, bytes, byType = w.calls, w.bytes, w.byType
	w.calls, w.bytes, w.byType = 0, 0, nil
	return calls, bytes, byType
}

// startLoopback boots n WAL-backed daemons on loopback TCP and returns their
// addresses.
func startLoopback(tb testing.TB, n int) []string {
	tb.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		d, err := daemon.Start(daemon.Config{
			Seeds:          addrs,
			Replication:    2,
			WALDir:         tb.TempDir(),
			StabilizeEvery: -1,
			Seed:           int64(i + 1),
		})
		if err != nil {
			tb.Fatalf("start daemon %d: %v", i, err)
		}
		tb.Cleanup(func() {
			//lint:allow droppederr teardown of a cluster that is being discarded
			d.Close()
		})
		addrs = append(addrs, d.Addr())
	}
	return addrs
}

// dialCounted dials addrs with a counting transport under the client.
func dialCounted(tb testing.TB, addrs []string, opts ...mlight.Option) (*mlight.Client, *wireCount) {
	tb.Helper()
	tcp := transport.NewTCP(transport.TCPOptions{})
	tb.Cleanup(func() {
		if err := tcp.Close(); err != nil {
			tb.Errorf("transport close: %v", err)
		}
	})
	w := &wireCount{Interface: tcp}
	client, err := mlight.Dial(addrs, append([]mlight.Option{mlight.WithTransport(w)}, opts...)...)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	return client, w
}

// TestDialedRPCBudget: with the covering leaf in the client's cache an Insert
// and a Delete are one RPC each — the op, under 512 bytes there and back — and
// neither sends a frame of the read-modify-write protocol; without a cache an
// insert is its lookup's probes plus that one; with a cache that misses, every
// probe of the search is the op itself, and there are fewer of them when a
// neighbouring leaf is cached.
func TestDialedRPCBudget(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	addrs := startLoopback(t, 3)
	client, w := dialCounted(t, addrs, mlight.WithCache(64), mlight.WithCapacity(40))
	recs := mlight.GenerateNE(400, 1)
	for _, rec := range recs {
		if err := client.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.take()

	casFrames := func(byType map[string]int) int { return byType["dht.GetVerReq"] + byType["dht.CASReq"] }
	bucketReads := func(byType map[string]int) int {
		return byType["overlay.retrieveReq"] + byType["overlay.retrieveBatchReq"]
	}
	warm, insertMax, deleteMax := 0, 0, 0
	for i, rec := range recs[:100] {
		// The lookup leaves the covering leaf in the cache; a leaf with room
		// for two more records cannot split under the insert.
		b, err := client.Lookup(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if b.Load() > 37 {
			continue
		}
		warm++
		w.take()
		extra := mlight.Record{Key: rec.Key, Data: fmt.Sprintf("budget-%d", i)}
		if err := client.Insert(extra); err != nil {
			t.Fatal(err)
		}
		calls, bytes, byType := w.take()
		if calls != 1 || byType["overlay.opReq"] != 1 || bytes >= 512 {
			t.Fatalf("warm-cache Insert: %d RPCs %v, %d B; want one overlay.opReq under 512 B", calls, byType, bytes)
		}
		insertMax = max(insertMax, bytes)
		ok, err := client.Delete(extra.Key, extra.Data)
		if err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
		calls, bytes, byType = w.take()
		if byType["overlay.opReq"] != 1 || casFrames(byType) != 0 {
			t.Fatalf("warm-cache Delete: %v; want one overlay.opReq and no GetVerReq/CASReq", byType)
		}
		// A delete that leaves the bucket under θmerge goes on to probe the
		// sibling; one that does not is the op alone, with no bucket in the
		// reply.
		if b.Load() >= 20 {
			if calls != 1 || bytes >= 512 {
				t.Fatalf("warm-cache Delete of a bucket over θmerge: %d RPCs, %d B; want 1 under 512 B", calls, bytes)
			}
			deleteMax = max(deleteMax, bytes)
		}
	}
	if warm < 20 {
		t.Fatalf("only %d of 100 leaves had room: the test measures too little", warm)
	}
	t.Logf("%d warm-cache inserts and deletes: one RPC each, at most %d B and %d B on the wire", warm, insertMax, deleteMax)

	cold, w2 := dialCounted(t, addrs, mlight.WithCapacity(40))
	before := cold.Stats()
	w2.take()
	if err := cold.Insert(mlight.Record{Key: recs[0].Key, Data: "cold"}); err != nil {
		t.Fatal(err)
	}
	calls, _, byType := w2.take()
	ops := cold.Stats().Sub(before).DHTLookups
	if byType["overlay.opReq"] != 1 || casFrames(byType) != 0 || bucketReads(byType) != calls-1 || int64(calls) != ops {
		t.Fatalf("cold Insert: %d RPCs %v for %d DHT operations; want the lookup's probes and one overlay.opReq", calls, byType, ops)
	}

	// A cold leaf whose neighbour is cached: the cache misses, but the cached
	// leaf under the target's sibling proves the target's parent internal, so
	// the search starts below it and probes the neighbour's depth first — each
	// probe the op, which lands at the leaf or answers with the label stored.
	var target mlight.Bucket
	var key mlight.Point
	for _, rec := range recs[1:] {
		b, err := cold.Lookup(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if b.Load() <= 37 && b.Label.Len() > 3 {
			target, key = b, rec.Key
			break
		}
	}
	if target.Label.Len() == 0 {
		t.Fatal("no leaf below the root with room for two records")
	}
	w2.take()
	if err := cold.Insert(mlight.Record{Key: key, Data: "unbounded"}); err != nil {
		t.Fatal(err)
	}
	_, _, byType = w2.take()
	unbounded := bucketReads(byType)

	near, w3 := dialCounted(t, addrs, mlight.WithCache(64), mlight.WithCapacity(40))
	sibling, err := spatial.RegionOf(target.Label.Sibling(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := near.Lookup(mlight.Point{(sibling.Lo[0] + sibling.Hi[0]) / 2, (sibling.Lo[1] + sibling.Hi[1]) / 2}); err != nil {
		t.Fatal(err)
	}
	before = near.Stats()
	w3.take()
	if err := near.Insert(mlight.Record{Key: key, Data: "bounded"}); err != nil {
		t.Fatal(err)
	}
	bounded, _, byType := w3.take()
	d := near.Stats().Sub(before)
	if d.CacheMisses != 1 || d.CacheStale != 0 {
		t.Fatalf("insert next to a cached neighbour: misses/stale = %d/%d, want 1/0", d.CacheMisses, d.CacheStale)
	}
	if byType["overlay.opReq"] != bounded || bucketReads(byType) != 0 || int64(bounded) != d.DHTLookups {
		t.Fatalf("insert next to a cached neighbour: %d RPCs %v for %d DHT operations; want every probe one overlay.opReq", bounded, byType, d.DHTLookups)
	}
	if bounded >= unbounded {
		t.Fatalf("insert into cold leaf %v with its neighbour cached took %d probes, the uncached lookup %d; want fewer", target.Label, bounded, unbounded)
	}
	t.Logf("cold leaf %v: %d probes with its neighbour cached, %d without a cache", target.Label, bounded, unbounded)
}
