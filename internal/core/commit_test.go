package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestCommitOneAtATimeEqualsAllAtOnce is the transform's own stats-equality
// property, with no DHT under it: replaying N records through Append one
// call per record — each into whichever leaf now covers it, as Insert drives
// it — and handing all N to one Append of the root — as one group commit
// drives it — build the same leaves and charge the same Splits and
// RecordsMoved, under both strategies.
func TestCommitOneAtATimeEqualsAllAtOnce(t *testing.T) {
	for _, rule := range []SplitRule{
		{Dims: 2, MaxDepth: 24, Strategy: SplitThreshold, ThetaSplit: 8},
		{Dims: 2, MaxDepth: 24, Strategy: SplitDataAware, ThetaSplit: 8, Epsilon: 6},
		{Dims: 3, MaxDepth: 4, Strategy: SplitThreshold, ThetaSplit: 3}, // runs into the depth bound
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%v/m%d/seed%d", rule.Strategy, rule.Dims, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				records := randomRecords(rng, 400, rule.Dims)
				for i := range records { // a clustered half: deep, uneven splits
					if i%2 == 0 {
						for d := range records[i].Key {
							records[i].Key[d] /= 8
						}
					}
				}
				root := bitlabel.Root(rule.Dims)

				type tally struct{ splits, moved int64 }
				land := func(leaves map[bitlabel.Label]Bucket, leaf bitlabel.Label, c Commit, n int, tl *tally) {
					t.Helper()
					if c.Err != nil || c.Gone || len(c.Stale) > 0 || c.Accepted != n {
						t.Fatalf("Append into %v: %+v", leaf, c)
					}
					delete(leaves, leaf)
					leaves[c.Keep.Label] = c.Keep
					for _, p := range c.Moved {
						leaves[p.Label] = NewBucket(p.Label, p.Records)
					}
					tl.splits += c.Splits
					tl.moved += c.RecordsMoved
				}

				one, oneTally := map[bitlabel.Label]Bucket{root: {Label: root}}, tally{}
				for _, rec := range records {
					var leaf bitlabel.Label
					for l := range one {
						if g, err := spatial.RegionOf(l, rule.Dims); err == nil && g.Contains(rec.Key) {
							leaf = l
						}
					}
					land(one, leaf, rule.Append(one[leaf], []spatial.Record{rec}), 1, &oneTally)
				}
				all, allTally := map[bitlabel.Label]Bucket{}, tally{}
				land(all, root, rule.Append(Bucket{Label: root}, records), len(records), &allTally)

				if oneTally != allTally {
					t.Errorf("splits/moved: one at a time %+v, all at once %+v", oneTally, allTally)
				}
				if len(one) != len(all) {
					t.Fatalf("%d leaves one at a time, %d all at once", len(one), len(all))
				}
				total := 0
				for l, b := range one {
					other, ok := all[l]
					if !ok || !sameRecordSet(b.Records(), other.Records()) {
						t.Fatalf("leaf %v differs (present all at once: %v)", l, ok)
					}
					total += b.Load()
				}
				if total != len(records) || allTally.splits == 0 {
					t.Fatalf("%d records in leaves, %d splits", total, allTally.splits)
				}
			})
		}
	}
}

// rerunFixture is a θsplit-4 index over a substrate that re-runs transforms on
// demand, and the key its root leaf lives under.
func rerunFixture(t *testing.T) (*Index, *dhttest.Flaky, dht.Key) {
	t.Helper()
	rr := dhttest.NewFlaky(dht.MustNewLocal(4))
	ix, err := New(rr, index.Tuning{Capacity: 4, MergeThreshold: 1, Sleep: dht.NoSleep})
	if err != nil {
		t.Fatal(err)
	}
	return ix, rr, Bucket{Label: bitlabel.Root(2)}.Key(2)
}

// storedAt returns what the substrate holds under key.
func storedAt(t *testing.T, d dht.DHT, key dht.Key) any {
	t.Helper()
	v, _, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// rerunRecords are five records spread over the unit square: the first four
// fill the root leaf, the fifth splits it.
var rerunRecords = []spatial.Record{
	{Key: spatial.Point{0.1, 0.1}, Data: "a"},
	{Key: spatial.Point{0.9, 0.2}, Data: "b"},
	{Key: spatial.Point{0.2, 0.8}, Data: "c"},
	{Key: spatial.Point{0.8, 0.9}, Data: "d"},
	{Key: spatial.Point{0.6, 0.6}, Data: "e"},
}

// insertDrivers are the two drivers of the one transform.
var insertDrivers = map[string]func(*Index, spatial.Record) error{
	"Insert":      (*Index).Insert,
	"InsertBatch": func(ix *Index, rec spatial.Record) error { return ix.InsertBatch([]spatial.Record{rec})[0] },
}

// TestRerunDiscardedSplitPlacesNothing: the run that lost its CAS saw a full
// leaf and split it; the run that was stored saw the leaf after another
// client's delete and only appended. Nothing of the first run's pieces may be
// placed — they would shadow the root with a second tree and bring the
// deleted record back.
func TestRerunDiscardedSplitPlacesNothing(t *testing.T) {
	for name, insert := range insertDrivers {
		t.Run(name, func(t *testing.T) {
			ix, rr, rootKey := rerunFixture(t)
			for _, rec := range rerunRecords[:4] {
				if err := ix.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			full := storedAt(t, rr, rootKey)
			gone := rerunRecords[3]
			if ok, err := ix.Delete(gone.Key, gone.Data); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			rr.RerunNext(rootKey, full, true)
			if err := insert(ix, rerunRecords[4]); err != nil {
				t.Fatal(err)
			}
			buckets, err := ix.Buckets()
			if err != nil {
				t.Fatal(err)
			}
			if len(buckets) != 1 || buckets[0].Load() != 4 {
				t.Fatalf("%d buckets, first holds %d records; want the root alone with 4", len(buckets), buckets[0].Load())
			}
			if found, err := ix.Exact(gone.Key); err != nil || len(found) != 0 {
				t.Fatalf("deleted record is back: %v (%v)", found, err)
			}
			if s := ix.Stats(); s.Splits != 0 {
				t.Fatalf("Splits = %d for an insert that split nothing", s.Splits)
			}
		})
	}
}

// TestRerunStaleVerdictIsNotSticky: the discarded run found no bucket under
// the key, the stored run accepted the record. Reporting the first verdict
// makes the driver look the leaf up again and insert the record a second time.
func TestRerunStaleVerdictIsNotSticky(t *testing.T) {
	for name, insert := range insertDrivers {
		t.Run(name, func(t *testing.T) {
			ix, rr, rootKey := rerunFixture(t)
			rr.RerunNext(rootKey, nil, false)
			if err := insert(ix, rerunRecords[0]); err != nil {
				t.Fatal(err)
			}
			if n, err := ix.Size(); err != nil || n != 1 {
				t.Fatalf("index holds %d records after one insert (%v)", n, err)
			}
		})
	}
}

// TestRerunSplitChargedOnce: both runs split the same full leaf; the counters
// must read what one split costs.
func TestRerunSplitChargedOnce(t *testing.T) {
	ref, err := New(dht.MustNewLocal(4), index.Tuning{Capacity: 4, MergeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rerunRecords {
		if err := ref.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Stats()
	if want.Splits == 0 {
		t.Fatal("reference run did not split")
	}
	for name, insert := range insertDrivers {
		t.Run(name, func(t *testing.T) {
			ix, rr, rootKey := rerunFixture(t)
			for _, rec := range rerunRecords[:4] {
				if err := ix.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			full := storedAt(t, rr, rootKey)
			rr.RerunNext(rootKey, full, true)
			if err := insert(ix, rerunRecords[4]); err != nil {
				t.Fatal(err)
			}
			if got := ix.Stats(); got.Splits != want.Splits || got.RecordsMoved != want.RecordsMoved {
				t.Fatalf("splits/moved = %d/%d, want %d/%d", got.Splits, got.RecordsMoved, want.Splits, want.RecordsMoved)
			}
			sameTree(t, ref, ix)
		})
	}
}

// TestRerunDeleteReportsTheStoredRun: the discarded run still saw the record,
// the stored run did not — another client had removed it. Delete must say so.
func TestRerunDeleteReportsTheStoredRun(t *testing.T) {
	ix, rr, rootKey := rerunFixture(t)
	rec := rerunRecords[0]
	if err := ix.Insert(rec); err != nil {
		t.Fatal(err)
	}
	holding := storedAt(t, rr, rootKey)
	if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || !ok {
		t.Fatalf("first Delete = %v, %v", ok, err)
	}
	rr.RerunNext(rootKey, holding, true)
	if ok, err := ix.Delete(rec.Key, rec.Data); err != nil || ok {
		t.Fatalf("second Delete = %v, %v; the record was already gone", ok, err)
	}
}
