// Package dhttest provides a conformance suite that every dht.DHT substrate
// in this repository must pass. Running the same behavioural checks against
// the local map DHT, the Chord overlay, and the Pastry overlay backs the
// paper's claim that m-LIGHT "is adaptable to any DHT substrate": the index
// only relies on the behaviours pinned here.
package dhttest

import (
	"fmt"
	"sync"
	"testing"

	"mlight/internal/dht"
)

// Factory builds a fresh, empty substrate for one subtest.
type Factory func(t *testing.T) dht.DHT

// RunConformance exercises the substrate contract: replacement semantics of
// Put, absence reporting of Get, idempotent Remove, atomic Apply with
// create/mutate/delete, stable Owner assignment, positional batch writes
// (PutBatch/ApplyBatch, native or decomposed), ops as data (dht.Do against
// Apply(key, op.Run), and against concurrent closure writers), and (when
// supported) complete enumeration via Range.
func RunConformance(t *testing.T, newDHT Factory) {
	t.Helper()

	t.Run("PutGetReplace", func(t *testing.T) {
		d := newDHT(t)
		if _, ok, err := d.Get("absent"); err != nil || ok {
			t.Fatalf("Get(absent) = ok=%v err=%v, want absent", ok, err)
		}
		if err := d.Put("k", "v1"); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := d.Get("k"); err != nil || !ok || v != "v1" {
			t.Fatalf("Get(k) = %v, %v, %v", v, ok, err)
		}
		if err := d.Put("k", "v2"); err != nil {
			t.Fatal(err)
		}
		if v, _, err := d.Get("k"); err != nil || v != "v2" {
			t.Fatalf("Put did not replace: %v (err %v)", v, err)
		}
	})

	t.Run("RemoveIdempotent", func(t *testing.T) {
		d := newDHT(t)
		if err := d.Put("k", 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove("k"); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Get("k"); err != nil || ok {
			t.Fatalf("Remove left value: ok=%v err=%v", ok, err)
		}
		if err := d.Remove("k"); err != nil {
			t.Fatalf("second Remove errored: %v", err)
		}
	})

	t.Run("ApplyLifecycle", func(t *testing.T) {
		d := newDHT(t)
		if err := d.Apply("a", func(cur any, exists bool) (any, bool) {
			if exists {
				t.Error("Apply on fresh key saw existing value")
			}
			return 10, true
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.Apply("a", func(cur any, exists bool) (any, bool) {
			n, _ := cur.(int)
			if !exists || n != 10 {
				t.Errorf("Apply saw %v/%v", cur, exists)
			}
			return n + 1, true
		}); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := d.Get("a"); err != nil || !ok || v != 11 {
			t.Fatalf("after Apply: %v, %v, %v", v, ok, err)
		}
		if err := d.Apply("a", func(any, bool) (any, bool) { return nil, false }); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Get("a"); err != nil || ok {
			t.Fatalf("Apply(keep=false) left value: ok=%v err=%v", ok, err)
		}
	})

	t.Run("OwnerStable", func(t *testing.T) {
		d := newDHT(t)
		for i := 0; i < 64; i++ {
			k := dht.Key(fmt.Sprintf("stable-%d", i))
			o1, err := d.Owner(k)
			if err != nil {
				t.Fatal(err)
			}
			o2, err := d.Owner(k)
			if err != nil {
				t.Fatal(err)
			}
			if o1 != o2 || o1 == "" {
				t.Fatalf("Owner(%q) unstable or empty: %q vs %q", k, o1, o2)
			}
		}
	})

	t.Run("ManyKeys", func(t *testing.T) {
		d := newDHT(t)
		const n = 256
		for i := 0; i < n; i++ {
			if err := d.Put(dht.Key(fmt.Sprintf("many-%d", i)), i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			v, ok, err := d.Get(dht.Key(fmt.Sprintf("many-%d", i)))
			if err != nil || !ok || v != i {
				t.Fatalf("Get(many-%d) = %v, %v, %v", i, v, ok, err)
			}
		}
	})

	t.Run("ConcurrentOverlap", func(t *testing.T) {
		// The concurrent query engine issues Gets from worker goroutines
		// while other clients mutate the same keys with Apply. Every
		// substrate must keep Apply atomic (no lost increments) and keep
		// concurrent Get/GetBatch free of torn reads under the race
		// detector.
		d := newDHT(t)
		const (
			goroutines = 8
			increments = 25
			keys       = 4
		)
		key := func(i int) dht.Key { return dht.Key(fmt.Sprintf("overlap-%d", i%keys)) }
		for i := 0; i < keys; i++ {
			if err := d.Put(key(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < increments; i++ {
					k := key(g + i)
					if err := d.Apply(k, func(cur any, exists bool) (any, bool) {
						n, _ := cur.(int)
						return n + 1, true
					}); err != nil {
						errs <- fmt.Errorf("Apply(%q): %w", k, err)
						return
					}
					if _, _, err := d.Get(key(g + i + 1)); err != nil {
						errs <- fmt.Errorf("Get: %w", err)
						return
					}
					batch := []dht.Key{key(0), key(1), key(2), key(3)}
					for _, r := range dht.GetBatch(d, batch, 4) {
						if r.Err != nil {
							errs <- fmt.Errorf("GetBatch: %w", r.Err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < keys; i++ {
			v, ok, err := d.Get(key(i))
			if err != nil || !ok {
				t.Fatalf("Get(%q) = ok=%v err=%v", key(i), ok, err)
			}
			total += v.(int)
		}
		if want := goroutines * increments; total != want {
			t.Fatalf("lost updates: counted %d increments, want %d", total, want)
		}
	})

	t.Run("PutBatchPositional", func(t *testing.T) {
		// dht.PutBatch must land every store (whether the substrate batches
		// natively or decomposes to per-key Puts) and keep its error slice
		// positional, including replacement of keys written earlier in the
		// same batch's presence.
		d := newDHT(t)
		const n = 32
		ops := make([]dht.PutOp, n)
		for i := range ops {
			ops[i] = dht.PutOp{Key: dht.Key(fmt.Sprintf("pb-%d", i)), Value: i}
		}
		errs := dht.PutBatch(d, ops, 8)
		if len(errs) != n {
			t.Fatalf("PutBatch returned %d errors, want %d", len(errs), n)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("PutBatch op %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			v, ok, err := d.Get(dht.Key(fmt.Sprintf("pb-%d", i)))
			if err != nil || !ok || v != i {
				t.Fatalf("Get(pb-%d) = %v, %v, %v", i, v, ok, err)
			}
		}
		// A second batch replaces in place, like Put.
		for i := range ops {
			ops[i].Value = i + 1000
		}
		for i, err := range dht.PutBatch(d, ops, 0) {
			if err != nil {
				t.Fatalf("replacing PutBatch op %d: %v", i, err)
			}
		}
		if v, _, err := d.Get("pb-7"); err != nil || v != 1007 {
			t.Fatalf("PutBatch did not replace: %v (err %v)", v, err)
		}
	})

	t.Run("ApplyBatchAtomic", func(t *testing.T) {
		// dht.ApplyBatch runs each transform with Apply's per-key atomicity:
		// transforms in the same batch see the stored value (create on
		// absence), and keep=false deletes.
		d := newDHT(t)
		const n = 16
		if err := d.Put("ab-seed", 100); err != nil {
			t.Fatal(err)
		}
		ops := make([]dht.ApplyOp, n)
		for i := range ops {
			key := dht.Key(fmt.Sprintf("ab-%d", i%4))
			ops[i] = dht.ApplyOp{Key: key, Fn: func(cur any, exists bool) (any, bool) {
				c, _ := cur.(int)
				return c + 1, true
			}}
		}
		for i, err := range dht.ApplyBatch(d, ops, 4) {
			if err != nil {
				t.Fatalf("ApplyBatch op %d: %v", i, err)
			}
		}
		// n transforms over 4 keys: each key must have absorbed exactly
		// n/4 increments — lost updates mean the batch broke atomicity.
		for i := 0; i < 4; i++ {
			v, ok, err := d.Get(dht.Key(fmt.Sprintf("ab-%d", i)))
			if err != nil || !ok || v != n/4 {
				t.Fatalf("Get(ab-%d) = %v, %v, %v, want %d", i, v, ok, err, n/4)
			}
		}
		del := []dht.ApplyOp{{Key: "ab-0", Fn: func(any, bool) (any, bool) { return nil, false }}}
		if errs := dht.ApplyBatch(d, del, 1); errs[0] != nil {
			t.Fatal(errs[0])
		}
		if _, ok, err := d.Get("ab-0"); err != nil || ok {
			t.Fatalf("ApplyBatch(keep=false) left value: ok=%v err=%v", ok, err)
		}
	})

	runOps(t, newDHT)

	t.Run("RangeComplete", func(t *testing.T) {
		d := newDHT(t)
		e, ok := d.(dht.Enumerator)
		if !ok {
			t.Skip("substrate does not enumerate")
		}
		want := map[dht.Key]bool{}
		for i := 0; i < 100; i++ {
			k := dht.Key(fmt.Sprintf("enum-%d", i))
			want[k] = true
			if err := d.Put(k, i); err != nil {
				t.Fatal(err)
			}
		}
		got := map[dht.Key]bool{}
		if err := e.Range(func(k dht.Key, v any) bool {
			got[k] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("Range missed %q", k)
			}
		}
	})
}
