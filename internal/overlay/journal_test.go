package overlay_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/transport"
)

// TestJournalCompacts: a node's journal is compacted by the node as it grows,
// so a long-running daemon's log, once past the compaction threshold, stays
// within twice its snapshot and one write, instead of growing without bound. Every snapshot is the node's store
// at the moment it was cut, so reopening the directory after any step
// recovers the shard exactly.
func TestJournalCompacts(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	rng := rand.New(rand.NewSource(seed))
	o := mustNew(t, "chord", simnet.New(simnet.Options{Seed: seed}), overlay.Config{Seed: seed})
	node, err := o.AddNode(simAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const threshold = 32
	open := func(dir string) *dht.WAL {
		w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: transport.Codec{}, CompactThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := open(dir)
	node.SetJournal(w)
	snapSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, "snapshot.bin"))
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	// recovered is what a daemon restarted on dir would replay. It replays a
	// copy: a second WAL on dir itself would cut the file under the node's.
	recovered := func() map[dht.Key]any {
		w := open(copyStore(t, dir))
		defer w.Close()
		state, err := w.Restore()
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	// A write is one record of at most a 200-byte value: a frame of ~250.
	const group = 256
	compactions, last := 0, w.LogBytes()
	for step := 0; step < 3000; step++ {
		key := dht.Key(fmt.Sprintf("k%03d", rng.Intn(200)))
		if rng.Intn(4) == 0 {
			err = o.Remove(key)
		} else {
			err = o.Put(key, bytes.Repeat([]byte{byte(step)}, rng.Intn(200)))
		}
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		logBytes, snapBytes := w.LogBytes(), snapSize()
		if logBytes < last {
			compactions++
		}
		last = logBytes
		if w.LogRecords() > threshold && logBytes > 2*snapBytes+group {
			t.Fatalf("seed %d step %d: the log is %d bytes beside a snapshot of %d", seed, step, logBytes, snapBytes)
		}
		if step%500 == 499 {
			checkShard(t, node.StoreSnapshot(), recovered())
		}
	}
	if compactions < 10 {
		t.Fatalf("seed %d: the journal was compacted %d times in 3000 writes", seed, compactions)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkShard(t, node.StoreSnapshot(), recovered())
}

// copyStore copies the files of the store directory dir into a fresh one.
func copyStore(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{"wal.log", "snapshot.bin"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(out, name), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkShard requires a recovered journal to hold exactly the node's store.
func checkShard(t *testing.T, want, got map[dht.Key]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, the node holds %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k].([]byte), v.([]byte)) {
			t.Fatalf("key %q recovered as %x, held as %x", k, got[k], v)
		}
	}
}
