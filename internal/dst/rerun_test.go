package dst

import (
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// TestRerunVerdictIsTheStoredRuns drives DST's per-level writes over a
// substrate that runs a transform twice — once against a view that is no
// longer current, discarded, then for real — as a lost CAS or a retry does.
// Only the stored run's verdict may reach the caller.
func TestRerunVerdictIsTheStoredRuns(t *testing.T) {
	recs := []spatial.Record{
		{Key: spatial.Point{0.1, 0.1}, Data: "a"},
		{Key: spatial.Point{0.9, 0.2}, Data: "b"},
		{Key: spatial.Point{0.2, 0.8}, Data: "c"},
		{Key: spatial.Point{0.8, 0.9}, Data: "d"},
	}
	rootKey := labelKey(bitlabel.Empty)
	fixture := func(t *testing.T, preload int) (*Index, *dhttest.Flaky) {
		t.Helper()
		rr := dhttest.NewFlaky(dht.MustNewLocal(4))
		ix, err := New(rr, index.Tuning{MaxDepth: 5, Capacity: 2})
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

	t.Run("discarded store at a saturated root counts nothing", func(t *testing.T) {
		ix, rr := fixture(t, 3)
		twin, _ := fixture(t, 3)
		if root, found, err := ix.getNode(bitlabel.Empty, nil); err != nil || !found || !root.Saturated {
			t.Fatalf("root = %+v, %v, %v; want it saturated", root, found, err)
		}
		ix.ResetStats()
		twin.ResetStats()
		rr.RerunNext(rootKey, nil, false) // the root as it was before the first insert
		for _, x := range []*Index{ix, twin} {
			if err := x.Insert(recs[3]); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := ix.Stats().RecordsMoved, twin.Stats().RecordsMoved; got != want {
			t.Fatalf("RecordsMoved = %d, the unarmed twin's %d", got, want)
		}
	})
	t.Run("second delete removes nothing", func(t *testing.T) {
		ix, rr := fixture(t, 1)
		holding, _, err := rr.Get(rootKey)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ix.Delete(recs[0].Key, recs[0].Data); err != nil || !ok {
			t.Fatalf("first Delete = %v, %v", ok, err)
		}
		rr.RerunNext(rootKey, holding, true)
		if ok, err := ix.Delete(recs[0].Key, recs[0].Data); err != nil || ok {
			t.Fatalf("second Delete = %v, %v; the record was already gone", ok, err)
		}
	})
}
