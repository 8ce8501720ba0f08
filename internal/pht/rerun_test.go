package pht

import (
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestRerunVerdictIsTheStoredRuns drives PHT's maintenance closures over a
// substrate that runs a transform twice — once against a view that is no
// longer current, discarded, then for real — as a lost CAS or a retry does.
// Only the stored run's verdict may reach the caller.
func TestRerunVerdictIsTheStoredRuns(t *testing.T) {
	recs := []spatial.Record{
		{Key: spatial.Point{0.1, 0.1}, Data: "a"},
		{Key: spatial.Point{0.9, 0.2}, Data: "b"},
		{Key: spatial.Point{0.2, 0.8}, Data: "c"},
		{Key: spatial.Point{0.8, 0.9}, Data: "d"},
		{Key: spatial.Point{0.6, 0.6}, Data: "e"},
	}
	rootKey := labelKey(bitlabel.Empty)
	fixture := func(t *testing.T, preload int) (*Index, *dhttest.Flaky) {
		t.Helper()
		rr := dhttest.NewFlaky(dht.MustNewLocal(4))
		ix, err := New(rr, index.Tuning{Capacity: 4, MergeThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[:preload] {
			if err := ix.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		return ix, rr
	}
	storedAt := func(t *testing.T, d dht.DHT) any {
		t.Helper()
		v, _, err := d.Get(rootKey)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	stored := func(t *testing.T, ix *Index, rec spatial.Record) int {
		t.Helper()
		found, err := ix.Lookup(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		return len(found)
	}

	t.Run("discarded overflow splits nothing", func(t *testing.T) {
		ix, rr := fixture(t, 4)
		full := storedAt(t, rr)
		if ok, err := ix.Delete(recs[3].Key, recs[3].Data); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
		rr.RerunNext(rootKey, full, true)
		if err := ix.Insert(recs[4]); err != nil {
			t.Fatal(err)
		}
		if n := stored(t, ix, recs[3]); n != 0 {
			t.Fatalf("deleted record is back (%d copies)", n)
		}
		if s := ix.Stats(); s.Splits != 0 {
			t.Fatalf("Splits = %d for an insert that overflowed nothing", s.Splits)
		}
	})
	t.Run("stale verdict is not sticky", func(t *testing.T) {
		ix, rr := fixture(t, 0)
		rr.RerunNext(rootKey, nil, false)
		if err := ix.Insert(recs[0]); err != nil {
			t.Fatal(err)
		}
		if n := stored(t, ix, recs[0]); n != 1 {
			t.Fatalf("%d copies after one insert", n)
		}
	})
	t.Run("delete reports the stored run", func(t *testing.T) {
		ix, rr := fixture(t, 1)
		holding := storedAt(t, rr)
		if ok, err := ix.Delete(recs[0].Key, recs[0].Data); err != nil || !ok {
			t.Fatalf("first Delete = %v, %v", ok, err)
		}
		rr.RerunNext(rootKey, holding, true)
		if ok, err := ix.Delete(recs[0].Key, recs[0].Data); err != nil || ok {
			t.Fatalf("second Delete = %v, %v; the record was already gone", ok, err)
		}
	})
}
