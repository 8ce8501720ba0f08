package wire_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/spatial"
	"mlight/internal/wire"
)

// walCodec extends valueCodec with a raw-bytes passthrough so a durable
// Local can sit under any decorator permutation: with ByteDHT in the stack
// the substrate journals []byte payloads, without it the scalars land
// directly.
type walCodec struct{}

func (walCodec) Marshal(v any) ([]byte, error) {
	if b, ok := v.([]byte); ok {
		return append([]byte{'b'}, b...), nil
	}
	return valueCodec{}.Marshal(v)
}

func (walCodec) Unmarshal(data []byte) (any, error) {
	if len(data) > 0 && data[0] == 'b' {
		return append([]byte(nil), data[1:]...), nil
	}
	return valueCodec{}.Unmarshal(data)
}

// TestDurableStackCrashRecoverPermutations runs a crash/recover cycle on a
// durable Local under every ordering of the three decorators: the journal
// sits below the whole stack, so whatever the decorators did to the values
// (codec framing, retries, counting) must replay to the identical
// client-visible state. The compaction threshold is set low enough that the
// workload crosses it, so recovery exercises snapshot-plus-log replay, not
// just a flat log.
func TestDurableStackCrashRecoverPermutations(t *testing.T) {
	decorate := map[string]func(dht.DHT) dht.DHT{
		"bytes": func(d dht.DHT) dht.DHT {
			return wire.NewByteDHT(d, valueCodec{})
		},
		"resilient": func(d dht.DHT) dht.DHT {
			return dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
		},
		"counting": func(d dht.DHT) dht.DHT {
			return dht.NewCounting(d, nil)
		},
	}
	for _, perm := range permutations([]string{"bytes", "resilient", "counting"}) {
		perm := perm
		t.Run(strings.Join(perm, "-"), func(t *testing.T) {
			w, err := dht.OpenWAL(dht.WALOptions{
				Dir: t.TempDir(), Codec: walCodec{}, CompactThreshold: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			local, err := dht.NewDurableLocal(16, w)
			if err != nil {
				t.Fatal(err)
			}
			d := dht.DHT(local)
			for i := len(perm) - 1; i >= 0; i-- {
				d = decorate[perm[i]](d)
			}

			truth := make(map[dht.Key]int)
			key := func(i int) dht.Key { return dht.Key(fmt.Sprintf("dk%d", i)) }
			for i := 0; i < 60; i++ {
				if err := d.Put(key(i), i); err != nil {
					t.Fatal(err)
				}
				truth[key(i)] = i
			}
			for i := 0; i < 60; i += 3 {
				if err := d.Apply(key(i), func(cur any, exists bool) (any, bool) {
					cv, _ := cur.(int)
					return cv + 100, true
				}); err != nil {
					t.Fatal(err)
				}
				truth[key(i)] += 100
			}
			for i := 0; i < 60; i += 5 {
				if err := d.Remove(key(i)); err != nil {
					t.Fatal(err)
				}
				delete(truth, key(i))
			}

			local.CrashVolatile()
			if _, found, err := d.Get(key(1)); err != nil || found {
				t.Fatalf("after crash Get = found %v, err %v; volatile state must be gone", found, err)
			}
			if err := local.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}

			enum, ok := d.(dht.Enumerator)
			if !ok {
				t.Fatal("decorated stack lost Enumerator")
			}
			got := make(map[dht.Key]int)
			if err := enum.Range(func(k dht.Key, v any) bool {
				n, _ := v.(int)
				got[k] = n
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(truth) {
				t.Fatalf("recovered scan saw %d records, want %d", len(got), len(truth))
			}
			for k, v := range truth {
				if got[k] != v {
					t.Errorf("recovered %q = %d, want %d", k, got[k], v)
				}
				gv, found, err := d.Get(k)
				if err != nil || !found || gv != v {
					t.Fatalf("recovered Get(%q) = %v, %v, %v; want %d", k, gv, found, err, v)
				}
			}
		})
	}
}

// buildReferenceLog journals a deterministic mutation sequence and returns
// the raw log bytes plus the ordered records, so damage tests can check
// that recovery yields exactly a replayable prefix.
func buildReferenceLog(t *testing.T) ([]byte, []dht.WALRecord) {
	t.Helper()
	dir := t.TempDir()
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: walCodec{}, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var recs []dht.WALRecord
	for i := 0; i < 25; i++ {
		recs = append(recs, dht.WALRecord{Op: dht.WALPut, Key: dht.Key(fmt.Sprintf("wk%d", i%10)), Value: i})
		if i%4 == 3 {
			recs = append(recs, dht.WALRecord{Op: dht.WALRemove, Key: dht.Key(fmt.Sprintf("wk%d", (i+2)%10))})
		}
	}
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data, recs
}

// restoreDamaged writes log bytes into a fresh WAL dir and restores.
func restoreDamaged(t *testing.T, log []byte) (map[dht.Key]any, dht.ReplayInfo) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: walCodec{}, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	state, err := w.Restore()
	if err != nil {
		t.Fatalf("Restore with damaged log (no snapshot) must truncate, not fail: %v", err)
	}
	return state, w.LastReplay()
}

// TestWALRestoreRecoversPrefixUnderLogDamage damages the log every way a
// crash can — truncation at every byte boundary and a flipped byte at every
// offset — and checks the recovery contract: Restore never fails (the log
// is torn-tail tolerant when no snapshot is involved) and the recovered
// state is exactly the replay of some prefix of the committed mutations.
func TestWALRestoreRecoversPrefixUnderLogDamage(t *testing.T) {
	log, recs := buildReferenceLog(t)

	replayPrefix := func(k int) map[dht.Key]any {
		state := make(map[dht.Key]any)
		for _, rec := range recs[:k] {
			if rec.Op == dht.WALPut {
				state[rec.Key] = rec.Value
			} else {
				delete(state, rec.Key)
			}
		}
		return state
	}
	checkPrefix := func(stage string, state map[dht.Key]any, info dht.ReplayInfo) {
		t.Helper()
		if info.LogRecords > len(recs) {
			t.Fatalf("%s: replayed %d records, only %d were written", stage, info.LogRecords, len(recs))
		}
		want := replayPrefix(info.LogRecords)
		if len(state) != len(want) {
			t.Fatalf("%s: recovered %d keys, prefix of %d records has %d", stage, len(state), info.LogRecords, len(want))
		}
		for k, v := range want {
			if state[k] != v {
				t.Fatalf("%s: recovered %q = %v, want %v", stage, k, state[k], v)
			}
		}
	}

	for cut := 0; cut <= len(log); cut += 7 {
		state, info := restoreDamaged(t, log[:cut])
		checkPrefix(fmt.Sprintf("truncate at %d", cut), state, info)
	}
	// A cut strictly inside the final record (the last byte is part of its
	// CRC) must be detected and reported as a torn tail.
	if _, info := restoreDamaged(t, log[:len(log)-1]); !info.TornTail {
		t.Fatal("mid-record truncation not reported as a torn tail")
	}
	for off := 0; off < len(log); off += 11 {
		damaged := append([]byte(nil), log...)
		damaged[off] ^= 0x40
		state, info := restoreDamaged(t, damaged)
		checkPrefix(fmt.Sprintf("flip at %d", off), state, info)
	}
}

// FuzzWALRestore feeds arbitrary bytes to the log-replay path with the
// production bucket codec, seeded with genuine journal bytes over encoded
// buckets (the same corpus construction the codec fuzzers use). Properties:
// Restore never panics, errors on a snapshot-less store only with
// dht.ErrWALInconsistent (an intact append record that fits no bucket replay
// holds, a generation with no snapshot), and the recovered state is a
// fixpoint — compacting it and restoring again yields the same records.
func FuzzWALRestore(f *testing.F) {
	seedDir := f.TempDir()
	sw, err := dht.OpenWAL(dht.WALOptions{Dir: seedDir, Codec: wire.BucketCodec{}, CompactThreshold: -1})
	if err != nil {
		f.Fatal(err)
	}
	leaf := core.NewBucket(bitlabel.MustParse("0011011"), []spatial.Record{
		{Key: spatial.Point{0.25, 0.75}, Data: "x"},
		{Key: spatial.Point{0.5, 0.5}, Data: ""},
	})
	if err := sw.Append([]dht.WALRecord{
		{Op: dht.WALPut, Key: "b/0011011", Value: leaf},
		{Op: dht.WALPut, Key: "b/root", Value: core.Bucket{Label: bitlabel.Root(2)}},
		{Op: dht.WALRemove, Key: "b/root"},
	}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	seed = seed[:sw.LogBytes()] // the records, without the open log's zero tail
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{0xff, 0x03, 'P', 0x00})
	// The same log with an append record behind it, and that record alone:
	// an intact delta for a key replay does not hold.
	if err := sw.Append([]dht.WALRecord{{
		Op: dht.WALPut, Key: "b/0011011", Prev: leaf,
		Value: leaf.Append(spatial.Record{Key: spatial.Point{0.3, 0.6}, Data: "new"}),
	}}); err != nil {
		f.Fatal(err)
	}
	withDelta, err := os.ReadFile(filepath.Join(seedDir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	withDelta = withDelta[:sw.LogBytes()]
	if len(withDelta)-len(seed) > 48 {
		f.Fatalf("a one-record append journaled %d bytes", len(withDelta)-len(seed))
	}
	f.Add(withDelta)
	f.Add(withDelta[len(seed):])
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: wire.BucketCodec{}, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		state, err := w.Restore()
		if errors.Is(err, dht.ErrWALInconsistent) {
			return
		}
		if err != nil {
			t.Fatalf("Restore errored on snapshot-less store: %v", err)
		}
		if err := w.Compact(state); err != nil {
			t.Fatalf("Compact of recovered state: %v", err)
		}
		again, err := w.Restore()
		if err != nil {
			t.Fatalf("Restore after Compact: %v", err)
		}
		if len(again) != len(state) {
			t.Fatalf("compacted restore has %d keys, first restore had %d", len(again), len(state))
		}
		for k, v := range state {
			b1, ok1 := v.(core.Bucket)
			b2, ok2 := again[k].(core.Bucket)
			if !ok1 || !ok2 {
				t.Fatalf("key %q: non-bucket values %T, %T", k, v, again[k])
			}
			if b1.Label != b2.Label || b1.Load() != b2.Load() {
				t.Fatalf("key %q changed across compact/restore", k)
			}
		}
	})
}
