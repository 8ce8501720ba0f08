package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// checkCensus holds ix's census over local to the other readings of the
// store: the leaves Buckets lists and the records Size counts, the entries
// Range yields (live buckets, tombstones and marked buckets partition them),
// the per-peer and per-depth sums, and the census without an owner. It
// returns the census.
func checkCensus(t *testing.T, ix *Index, local *dht.Local, step string) Census {
	t.Helper()
	c, err := ix.Census(local.Owner, local.Peers())
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	size, err := ix.Size()
	if err != nil {
		t.Fatal(err)
	}
	entries, empty := 0, 0
	if err := local.Range(func(dht.Key, any) bool { entries++; return true }); err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		if b.Load() == 0 {
			empty++
		}
	}
	sum := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	bare, err := ix.Census(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape := c
	shape.PeerBuckets, shape.PeerRecords, shape.Variance = nil, nil, 0
	switch {
	case c.Leaves != len(buckets) || c.Records != size || c.Empty != empty:
	case c.Live+c.Tombstones+c.Marked != entries:
	case len(c.PeerRecords) != len(local.Peers()) || sum(c.PeerBuckets) != c.Leaves || sum(c.PeerRecords) != c.Records:
	case len(c.Depths) != c.MaxDepth+1 || sum(c.Depths) != c.Leaves || c.Depths[c.MaxDepth] == 0:
	case !reflect.DeepEqual(bare, shape):
		t.Fatalf("%s: census without an owner %+v, with one %+v", step, bare, c)
	default:
		return c
	}
	t.Fatalf("%s: census %+v against %d leaves (%d empty), %d records and %d stored entries", step, c, len(buckets), empty, size, entries)
	return c
}

// TestCensusAccounting drives a seeded index through inserts, deletes that
// merge, and a move a client stopped half way, and checks the census after
// every step.
func TestCensusAccounting(t *testing.T) {
	tuning := index.Tuning{Dims: 2, Capacity: 8, MergeThreshold: 3, MaxInFlight: 1}
	local := dht.MustNewLocal(16)
	ix, err := New(local, tuning)
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Uniform(400, 2, dhttest.SeedFromEnv(1))
	for i, rec := range recs {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if c := checkCensus(t, ix, local, "insert "+strconv.Itoa(i)); c.Records != i+1 || c.Tombstones+c.Marked != 0 {
			t.Fatalf("insert %d: %d records, %d tombstones, %d marks", i, c.Records, c.Tombstones, c.Marked)
		}
	}
	kept := recs[:50]
	for i, rec := range recs[len(kept):] {
		if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", i, ok, err)
		}
		if c := checkCensus(t, ix, local, "delete "+strconv.Itoa(i)); c.Records != len(recs)-i-1 || c.Marked != 0 {
			t.Fatalf("delete %d: %d records, %d marks", i, c.Records, c.Marked)
		}
	}
	if c := checkCensus(t, ix, local, "after the deletes"); c.Tombstones == 0 || ix.Stats().Merges == 0 {
		t.Fatalf("the deletes left %d tombstones after %d merges", c.Tombstones, ix.Stats().Merges)
	}

	// A second client inserts into one cell until a split marks its bucket,
	// and stops before the first piece is installed.
	st := dhttest.NewStepper()
	mover, err := New(st.Client(local), tuning)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	done := make(chan error, 1)
	go func() {
		defer st.Finish(0)
		for i := 0; i < 2*tuning.Capacity; i++ {
			p := spatial.Point{0.01 + float64(i)/1000, 0.02}
			if err := mover.Insert(spatial.Record{Key: p, Data: "m" + strconv.Itoa(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		calls := st.Wait()
		if len(calls) == 0 {
			t.Fatalf("the mover never split (%v)", <-done)
		}
		if opIs(calls[0], "core.InstallOp") {
			break
		}
		st.Release(0)
	}
	c := checkCensus(t, ix, local, "mid-move")
	if c.Marked != 1 || c.Leaves <= c.Live {
		t.Errorf("mid-move: %d marked buckets, %d leaves of which %d live: the frozen pieces are not leaves", c.Marked, c.Leaves, c.Live)
	}
	// No piece is installed yet, so each peer holds the records of the
	// buckets its store holds, the pieces frozen in a mark included.
	held := make(map[string]int)
	if err := local.Range(func(k dht.Key, v any) bool {
		p, err := local.Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		held[p] += v.(Bucket).Load()
		for _, h := range v.(Bucket).hops() {
			held[p] += h.piece.Load()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range local.Peers() {
		if c.PeerRecords[i] != held[p] {
			t.Errorf("mid-move: %s is charged %d records and holds %d", p, c.PeerRecords[i], held[p])
		}
	}
	if err := CheckInvariants(ix); err != nil {
		t.Error(err)
	}
	drain(st)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c := checkCensus(t, ix, local, "after the move"); c.Marked != 0 || c.Records != len(kept)+2*tuning.Capacity {
		t.Errorf("after the move: %d marked buckets, %d records", c.Marked, c.Records)
	}
}

// TestCensusDeleteRefill runs four cycles that each delete 90 % of a
// 5,000-record uniform index (θ = 20, θmerge = 8, 16 peers) and insert 4,500
// new records, and logs the census after each half. Nothing collects a
// merge's tombstone yet, so their count is reported, not pinned.
func TestCensusDeleteRefill(t *testing.T) {
	if testing.Short() {
		t.Skip("41,000 operations")
	}
	local := dht.MustNewLocal(16)
	ix, err := New(local, index.Tuning{Dims: 2, Capacity: 20, MergeThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n, cycles = 5000, 4
	seed := dhttest.SeedFromEnv(1)
	live := dataset.Uniform(n, 2, seed)
	for _, rec := range live {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for cycle := 1; cycle <= cycles; cycle++ {
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		gone := len(live) * 9 / 10
		for _, rec := range live[:gone] {
			if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
				t.Fatalf("cycle %d: delete %v: %v, %v", cycle, rec, ok, err)
			}
		}
		live = live[gone:]
		c := checkCensus(t, ix, local, "mass delete")
		t.Logf("cycle %d, after deleting %d: %d leaves (%d empty), %d tombstones, %d stored entries",
			cycle, gone, c.Leaves, c.Empty, c.Tombstones, c.Live+c.Tombstones+c.Marked)
		for i, rec := range dataset.Uniform(gone, 2, seed+int64(cycle)) {
			rec.Data = "c" + strconv.Itoa(cycle) + "-" + strconv.Itoa(i)
			if err := ix.Insert(rec); err != nil {
				t.Fatal(err)
			}
			live = append(live, rec)
		}
		c = checkCensus(t, ix, local, "refill")
		if c.Records != n || c.Marked != 0 {
			t.Fatalf("cycle %d: %d records, %d marks after the refill", cycle, c.Records, c.Marked)
		}
		t.Logf("cycle %d, after the refill: %d leaves (%d empty), %d tombstones, %d stored entries",
			cycle, c.Leaves, c.Empty, c.Tombstones, c.Live+c.Tombstones+c.Marked)
	}
}
