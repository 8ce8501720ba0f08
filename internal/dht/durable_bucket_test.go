package dht_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/wire"
)

// These tests run the durable Local the way cmd/mlight-perf's durable-local
// workload does: the index's buckets under wire.BucketCodec, whose deltas let
// the journal keep an insert as its record.

// openBucketStore is a durable Local over the bucket codec in a fresh
// directory, and its WAL.
func openBucketStore(t testing.TB, threshold int) (l *dht.Local, w *dht.WAL) {
	t.Helper()
	dir := t.TempDir()
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: wire.BucketCodec{}, CompactThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("wal close: %v", err)
		}
	})
	if l, err = dht.NewDurableLocal(8, w); err != nil {
		t.Fatal(err)
	}
	return l, w
}

// encodedStore is every stored bucket's encoding, by key.
func encodedStore(t *testing.T, l *dht.Local) map[dht.Key][]byte {
	t.Helper()
	out := make(map[dht.Key][]byte)
	if err := l.Range(func(k dht.Key, v any) bool {
		out[k] = v.(core.Bucket).Marshal()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDurableLocalRecoveryIsExact: whatever mix of inserts, batches that hit
// one leaf twice, deletes, splits, merges and compactions the journal saw —
// as puts, deletes, append and removal records, over snapshots of several
// generations — a crash recovers, for every key, the bucket that was stored,
// byte for byte. That holds too when a delete takes one of two equal records,
// whose removal record may name the other. And the journal is what it is
// meant to be: an insert that splits nothing, and a delete that merges
// nothing, each cost the log tens of bytes.
func TestDurableLocalRecoveryIsExact(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	rng := rand.New(rand.NewSource(seed))
	l, w := openBucketStore(t, 16)
	ix, err := core.New(l, index.Tuning{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	var live []spatial.Record
	point := func() spatial.Point { return spatial.Point{rng.Float64(), rng.Float64()} }
	record := func(p spatial.Point) spatial.Record {
		rec := spatial.Record{Key: p, Data: fmt.Sprintf("r%d", len(live))}
		live = append(live, rec)
		return rec
	}
	var plainInserts, plainBytes, plainDeletes, plainDeleteBytes, crashes, compactions, twins int64
	// crash drops the store's memory and requires recovery to give back
	// every bucket, byte for byte.
	crash := func(step int) {
		want := encodedStore(t, l)
		l.CrashVolatile()
		if err := l.Recover(); err != nil {
			t.Fatalf("seed %d step %d: recover: %v", seed, step, err)
		}
		got := encodedStore(t, l)
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: recovered %d buckets, %d were stored", seed, step, len(got), len(want))
		}
		for k, enc := range want {
			if !bytes.Equal(got[k], enc) {
				t.Fatalf("seed %d step %d: bucket %q recovered as %x, was stored as %x", seed, step, k, got[k], enc)
			}
		}
		crashes++
	}
	for step := 0; step < 3000; step++ {
		p := rng.Intn(100)
		if step >= 1800 && p < 70 && p%5 != 0 {
			p = 70 // the last third shrinks the index, so that leaves merge
		}
		switch {
		case p < 55:
			splits, records, size := ix.Stats().Splits, w.LogRecords(), w.LogBytes()
			if err := ix.Insert(record(point())); err != nil {
				t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
			}
			// Count the insert when it was one journal record: no split
			// rode along and no compaction reset the log under it.
			if ix.Stats().Splits == splits && w.LogRecords() == records+1 {
				plainInserts++
				plainBytes += w.LogBytes() - size
			}
		case p < 70:
			// Two records a hair apart share a leaf, and so one append op
			// of the group commit, among others.
			near := point()
			batch := []spatial.Record{record(near), record(point()), record(spatial.Point{near[0], near[1] * (1 - 1e-12)}), record(point())}
			for i, err := range ix.InsertBatch(batch) {
				if err != nil {
					t.Fatalf("seed %d step %d: batch record %d: %v", seed, step, i, err)
				}
			}
		case p < 90 && len(live) > 0:
			i := rng.Intn(len(live))
			rec := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			merges, records, size := ix.Stats().Merges, w.LogRecords(), w.LogBytes()
			if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
				t.Fatalf("seed %d step %d: delete %v: %v, %v", seed, step, rec, ok, err)
			}
			if ix.Stats().Merges == merges && w.LogRecords() == records+1 {
				plainDeletes++
				plainDeleteBytes += w.LogBytes() - size
			}
		case p < 91:
			// Twins: two equal records side by side in one leaf. Deleting
			// one, the journal cannot tell which went, and need not.
			twin := record(point())
			live = append(live, twin)
			for range 2 {
				if err := ix.Insert(twin); err != nil {
					t.Fatalf("seed %d step %d: insert twin: %v", seed, step, err)
				}
			}
			if ok, err := ix.Delete(twin.Key, twin.Data); err != nil || !ok {
				t.Fatalf("seed %d step %d: delete a twin: %v, %v", seed, step, ok, err)
			}
			live = live[:len(live)-1]
			crash(step)
			twins++
		case p < 93:
			if ok, err := ix.Delete(point(), "never inserted"); err != nil || ok {
				t.Fatalf("seed %d step %d: delete of a missing record: %v, %v", seed, step, ok, err)
			}
		case p < 96:
			state := make(map[dht.Key]any)
			if err := l.Range(func(k dht.Key, v any) bool { state[k] = v; return true }); err != nil {
				t.Fatal(err)
			}
			if err := w.Compact(state); err != nil {
				t.Fatalf("seed %d step %d: compact: %v", seed, step, err)
			}
			compactions++
		default:
			crash(step)
		}
	}
	if n, err := ix.Size(); err != nil || n != len(live) {
		t.Fatalf("seed %d: index holds %d records (%v), %d are live", seed, n, err, len(live))
	}
	st := ix.Stats()
	if crashes < 20 || compactions < 20 || st.Splits < 50 || st.Merges < 1 || plainInserts < 500 || plainDeletes < 100 || twins < 5 {
		t.Fatalf("seed %d: the run was not the mix it is meant to be: %d crashes, %d forced compactions, %d splits, %d merges, %d plain inserts, %d plain deletes, %d twins",
			seed, crashes, compactions, st.Splits, st.Merges, plainInserts, plainDeletes, twins)
	}
	t.Logf("seed %d: %d plain inserts journal %.1f B each, %d plain deletes %.1f B; %d twins", seed,
		plainInserts, float64(plainBytes)/float64(plainInserts), plainDeletes, float64(plainDeleteBytes)/float64(plainDeletes), twins)
	if mean := float64(plainBytes) / float64(plainInserts); mean >= 64 {
		t.Fatalf("seed %d: an insert that splits nothing journals %.1f bytes on average, want < 64", seed, mean)
	}
	if mean := float64(plainDeleteBytes) / float64(plainDeletes); mean >= 48 {
		t.Fatalf("seed %d: a delete that merges nothing journals %.1f bytes on average, want < 48", seed, mean)
	}
}

// applySpy records how many bytes each Apply added to the log.
type applySpy struct {
	dht.DHT
	w    *dht.WAL
	grew []int64
}

func (s *applySpy) Apply(key dht.Key, fn dht.ApplyFunc) error {
	before := s.w.LogBytes()
	err := s.DHT.Apply(key, fn)
	s.grew = append(s.grew, s.w.LogBytes()-before)
	return err
}

// TestDurableLocalUnchangedBucketJournalsNothing: the two maintenance
// transforms that decline — an insert sent to a leaf that has since split
// away from the record, a delete of a record that is not there — hand the
// stored bucket back, and the journal writes nothing for them. The caching
// client's search probes with the write itself, so every op of the insert but
// the one that lands is declined.
func TestDurableLocalUnchangedBucketJournalsNothing(t *testing.T) {
	l, w := openBucketStore(t, -1)
	opts := index.Tuning{Dims: 2, Capacity: 4}
	writer, err := core.New(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	spy := &applySpy{DHT: l, w: w}
	opts.CacheSize = 16
	cached, err := core.New(spy, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The caching client learns the root leaf; the other one splits it.
	if err := cached.Insert(spatial.Record{Key: spatial.Point{0.1, 0.1}, Data: "first"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := writer.Insert(spatial.Record{Key: spatial.Point{0.1 + float64(i)/10, 0.9 - float64(i)/10}, Data: "fill"}); err != nil {
			t.Fatal(err)
		}
	}
	if writer.Stats().Splits == 0 {
		t.Fatal("the fill did not split the root leaf")
	}

	// The root's key now holds the part of the root that stayed; the record
	// lies outside it.
	stale := spatial.Record{Key: spatial.Point{0.2, 0.2}, Data: "stale"}
	v, _, err := l.Get(core.Bucket{Label: bitlabel.Root(2)}.Key(2))
	if err != nil {
		t.Fatal(err)
	}
	if stayed, err := spatial.RegionOf(v.(core.Bucket).Label, 2); err != nil || stayed.Contains(stale.Key) {
		t.Fatalf("the part of the root that stayed, %v, covers %v (%v): the insert would not be declined", v.(core.Bucket).Label, stale.Key, err)
	}
	spy.grew = nil
	before := cached.Stats()
	if err := cached.Insert(stale); err != nil {
		t.Fatal(err)
	}
	d := cached.Stats().Sub(before)
	n := len(spy.grew)
	if d.CacheStale != 1 || n < 2 || int64(n) != d.DHTLookups {
		t.Fatalf("the insert made %d Apply calls for %d search probes with %d stale cache hits, want the declined hit and the search's ops after it, every Apply one probe", n, d.DHTLookups, d.CacheStale)
	}
	for i, grew := range spy.grew[:n-1] {
		if grew != 0 {
			t.Fatalf("declined Apply %d of %d grew the log by %d bytes, want 0", i+1, n-1, grew)
		}
	}
	if spy.grew[n-1] <= 0 {
		t.Fatalf("the Apply that landed grew the log by %d bytes, want a record", spy.grew[n-1])
	}

	spy.grew = nil
	records, size := w.LogRecords(), w.LogBytes()
	if ok, err := cached.Delete(spatial.Point{0.7, 0.7}, "never inserted"); err != nil || ok {
		t.Fatalf("delete of a missing record: %v, %v", ok, err)
	}
	if len(spy.grew) == 0 {
		t.Fatal("the delete reached no bucket")
	}
	if got, gotSize := w.LogRecords(), w.LogBytes(); got != records || gotSize != size {
		t.Fatalf("a delete that removed nothing took the log from %d records / %d bytes to %d / %d", records, size, got, gotSize)
	}
}

// bucket50 is a 50-record leaf with room to spare, and that
// leaf with a record appended in place: the steady state of an insert.
func bucket50() (prev, next core.Bucket) {
	rng := rand.New(rand.NewSource(50))
	records := make([]spatial.Record, 51)
	for i := range records {
		records[i] = spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("payload-%04d", i)}
	}
	// The 50th record outgrows NewBucket's exact-size slice; the 51st fits
	// in what that growth left.
	prev = core.NewBucket(bitlabel.MustParse("0011011"), records[:49]).Append(records[49])
	return prev, prev.Append(records[50])
}

// removal50 is bucket50's 51-record leaf, and that leaf with a middle record
// removed, of exact size as core.Remove leaves it: the steady state
// of a delete that merges nothing.
func removal50() (prev, next core.Bucket) {
	_, prev = bucket50()
	records := prev.Records()
	return prev, core.NewBucket(prev.Label, append(records[:25], records[26:]...))
}

// TestWALAppendDeltaZeroAlloc pins the journal write of a steady-state insert
// — a put that extends its predecessor, over the bucket codec — at no
// allocation: the frame is built in the WAL's own buffer.
func TestWALAppendDeltaZeroAlloc(t *testing.T) {
	prev, next := bucket50()
	testWALDeltaAppend(t, wire.BucketCodec{}, prev, next, 64)
}

// TestWALRemovalDeltaZeroAlloc pins the journal write of a steady-state
// delete — a put of its predecessor without one record — the same way, and
// at a removal record: the index of the record, not the 1.6 kB bucket.
func TestWALRemovalDeltaZeroAlloc(t *testing.T) {
	prev, next := removal50()
	testWALDeltaAppend(t, wire.BucketCodec{}, prev, next, 48)
}

// TestDaemonWALDeltaZeroAlloc pins both on a daemon's journal, whose values
// are the buckets' encodings (wire.DaemonCodec).
func TestDaemonWALDeltaZeroAlloc(t *testing.T) {
	prev, next := bucket50()
	testWALDeltaAppend(t, wire.DaemonCodec{}, prev.Marshal(), next.Marshal(), 64)
	prev, next = removal50()
	testWALDeltaAppend(t, wire.DaemonCodec{}, prev.Marshal(), next.Marshal(), 48)
}

// openWAL is a WAL over codec in a fresh directory, never compacted.
func openWAL(tb testing.TB, codec dht.Codec) *dht.WAL {
	tb.Helper()
	w, err := dht.OpenWAL(dht.WALOptions{Dir: tb.TempDir(), Codec: codec, CompactThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := w.Close(); err != nil {
			tb.Errorf("wal close: %v", err)
		}
	})
	return w
}

// testWALDeltaAppend journals next over prev 101 times and requires each
// Append to add at most limit bytes to the log, and to allocate nothing
// outside the race detector.
func testWALDeltaAppend(t *testing.T, codec dht.Codec, prev, next any, limit int64) {
	w := openWAL(t, codec)
	recs := []dht.WALRecord{{Op: dht.WALPut, Key: "mlight/0011011", Value: next, Prev: prev}}
	if err := w.Append(recs); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	size := w.LogBytes()
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.Append(recs); err != nil {
			t.Fatal(err)
		}
	})
	perAppend := (w.LogBytes() - size) / 101
	t.Logf("%d bytes of log and %.1f allocations an Append", perAppend, allocs)
	if perAppend <= 0 || perAppend > limit {
		t.Fatalf("each Append journaled %d bytes, want one delta record of at most %d", perAppend, limit)
	}
	if allocs != 0 && !dhttest.RaceEnabled() {
		t.Fatalf("a delta Append allocates %.1f objects/op, want 0", allocs)
	}
}
