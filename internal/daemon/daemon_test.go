// The daemon suite boots real daemons in-process — every byte between
// them, and between them and the Dial clients, crosses loopback TCP — and
// exercises the full deployment story: cluster formation, a dial-anywhere
// client, graceful drain, and WAL crash recovery.
package daemon_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlight"
	"mlight/internal/daemon"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// startCluster boots n daemons: the first bootstraps, the rest join
// through it. Returns the daemons and their addresses.
func startCluster(t *testing.T, n int, cfg daemon.Config) ([]*daemon.Daemon, []string) {
	t.Helper()
	daemons := make([]*daemon.Daemon, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seeds = append([]string(nil), addrs...)
		c.Seed = int64(i + 1)
		d, err := daemon.Start(c)
		if err != nil {
			t.Fatalf("start daemon %d: %v", i, err)
		}
		t.Cleanup(func() {
			//lint:allow droppederr test teardown of an already-drained daemon
			d.Close()
		})
		daemons = append(daemons, d)
		addrs = append(addrs, d.Addr())
	}
	return daemons, addrs
}

func insertSmoke(t *testing.T, q mlight.Querier, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := mlight.Record{
			Key:  mlight.Point{float64(i%13)/13 + 0.02, float64(i/13)/13 + 0.02},
			Data: fmt.Sprintf("rec-%d", i),
		}
		if err := q.Insert(rec); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func countSmoke(t *testing.T, q mlight.Querier) int {
	t.Helper()
	rect, err := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RangeQuery(rect)
	if err != nil {
		t.Fatalf("range query: %v", err)
	}
	return len(res.Records)
}

func TestClusterInsertQueryDrain(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("real-socket daemon suite is not short")
	}
	daemons, addrs := startCluster(t, 3, daemon.Config{
		Replication:    2,
		StabilizeEvery: 50 * time.Millisecond,
	})

	// The full client-side decorator stack — retries and span tracing —
	// composes over the remote transport exactly as it does in-process.
	tc := mlight.NewTraceCollector()
	client, err := mlight.Dial(addrs,
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6}),
		mlight.WithTrace(tc),
	)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()

	const records = 40
	insertSmoke(t, client, records)
	if got := countSmoke(t, client); got != records {
		t.Fatalf("pre-drain query returned %d records, want %d", got, records)
	}
	if tc.Len() == 0 {
		t.Error("trace collector recorded no spans over the wire")
	}

	// Graceful drain of one daemon: its shard hands off to its overlay
	// neighbours, so a fresh client dialing only the survivors still sees
	// every record.
	if err := daemons[2].Close(); err != nil {
		t.Fatalf("drain daemon 2: %v", err)
	}
	survivor, err := mlight.Dial(addrs[:2], mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6}))
	if err != nil {
		t.Fatalf("dial survivors: %v", err)
	}
	defer func() {
		if err := survivor.Close(); err != nil {
			t.Errorf("survivor close: %v", err)
		}
	}()
	if got := countSmoke(t, survivor); got != records {
		t.Errorf("post-drain query returned %d records, want %d", got, records)
	}

	// The first client's view still names the drained daemon. A direct send
	// that picks it fails, drops it from the view and is routed: the caller
	// sees every record and no error.
	if got := countSmoke(t, client); got != records {
		t.Errorf("post-drain query by the pre-drain client returned %d records, want %d", got, records)
	}
	ov := client.Overlay()
	if ov.DirectSends.Load() == 0 {
		t.Errorf("dialed client never sent direct: %s", ov.DirectSummary())
	}
	if ov.DirectFailed.Load() > 0 && ov.ViewSize() != 2 {
		t.Errorf("a direct send to the drained daemon failed but it is still in the view: %s", ov.DirectSummary())
	}
}

func TestDialSubstrates(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("real-socket daemon suite is not short")
	}
	for _, substrate := range []string{"pastry", "kademlia"} {
		substrate := substrate
		t.Run(substrate, func(t *testing.T) {
			t.Parallel()
			_, addrs := startCluster(t, 2, daemon.Config{
				Substrate:      substrate,
				StabilizeEvery: 50 * time.Millisecond,
			})
			client, err := mlight.Dial(addrs,
				mlight.WithSubstrate(substrate),
				mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6}),
			)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer func() {
				if err := client.Close(); err != nil {
					t.Errorf("client close: %v", err)
				}
			}()
			const records = 12
			insertSmoke(t, client, records)
			if got := countSmoke(t, client); got != records {
				t.Errorf("query returned %d records, want %d", got, records)
			}
		})
	}
}

func TestDialRejectsUnknownSubstrate(t *testing.T) {
	if _, err := mlight.Dial([]string{"127.0.0.1:1"}, mlight.WithSubstrate("gossip")); err == nil {
		t.Fatal("Dial with an unknown substrate succeeded")
	}
	if _, err := mlight.Dial(nil); err == nil {
		t.Fatal("Dial with no addresses succeeded")
	}
}

// TestWALRestartRecoversShard kills and restarts a single-daemon overlay of
// each substrate: the journal hook and the replay are the kernel's, so
// every protocol recovers its shard through the same code path.
func TestWALRestartRecoversShard(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("real-socket daemon suite is not short")
	}
	for _, substrate := range []string{"chord", "pastry", "kademlia"} {
		t.Run(substrate, func(t *testing.T) {
			t.Parallel()
			walDir := t.TempDir()
			d, err := daemon.Start(daemon.Config{
				Substrate:      substrate,
				WALDir:         walDir,
				StabilizeEvery: -1,
			})
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			addr := d.Addr()

			client, err := mlight.Dial([]string{addr}, mlight.WithSubstrate(substrate))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			const records = 20
			insertSmoke(t, client, records)
			if err := client.Close(); err != nil {
				t.Errorf("client close: %v", err)
			}

			// The daemon goes away; as the overlay's only node it has nobody
			// to hand its shard to. Without the WAL that shard would be gone.
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			d2, err := daemon.Start(daemon.Config{
				Listen:         addr,
				Substrate:      substrate,
				WALDir:         walDir,
				StabilizeEvery: -1,
			})
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer func() {
				if err := d2.Close(); err != nil {
					t.Errorf("close restarted: %v", err)
				}
			}()

			client2, err := mlight.Dial([]string{addr}, mlight.WithSubstrate(substrate))
			if err != nil {
				t.Fatalf("dial restarted: %v", err)
			}
			defer func() {
				if err := client2.Close(); err != nil {
					t.Errorf("client close: %v", err)
				}
			}()
			if got := countSmoke(t, client2); got != records {
				t.Errorf("post-restart query returned %d records, want %d (WAL replay lost data)", got, records)
			}
		})
	}
}

// TestJournalReplaysTheStore drives inserts and deletes — enough for leaves
// to split and to merge — through a dialed client into three WAL-backed
// daemons. Each daemon journals its node's writes over wire.DaemonCodec: an
// insert as the records it appended to the stored encoding, a delete as the
// index of the record it cut. A copy of each daemon's directory, restored with
// that codec, holds byte for byte what the node stores; restored with the
// plain transport codec it is refused, so the log did hold deltas. Which
// daemon owns which leaf follows from its address, so the daemons listen on
// addresses spread round the ring and the test adds records until every
// daemon's log holds a delta.
func TestJournalReplaysTheStore(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("real-socket daemon suite is not short")
	}
	var addrs, dirs []string
	var daemons []*daemon.Daemon
	for i, listen := range spreadAddrs(t, 3) {
		dir := t.TempDir()
		d, err := daemon.Start(daemon.Config{Listen: listen, Seeds: addrs, WALDir: dir, StabilizeEvery: -1, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("start daemon %d: %v", i, err)
		}
		t.Cleanup(func() {
			//lint:allow droppederr test teardown of a cluster being discarded
			d.Close()
		})
		daemons, addrs, dirs = append(daemons, d), append(addrs, d.Addr()), append(dirs, dir)
	}
	client, err := mlight.Dial(addrs, mlight.WithCapacity(8), mlight.WithMergeThreshold(4), mlight.WithSeed(1))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	recs := make([]mlight.Record, 80)
	for i := range recs {
		recs[i] = mlight.Record{Key: mlight.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("rec-%d", i)}
		if err := client.Insert(recs[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i, rec := range recs[:70] {
		data := rec.Data
		if i%3 == 0 {
			data = "" // a data-less delete takes the first record at the key
		}
		if ok, err := client.Delete(rec.Key, data); err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", i, ok, err)
		}
	}
	if s := client.Stats(); s.Splits == 0 || s.Merges == 0 {
		t.Fatalf("%d splits and %d merges: the workload must do both", s.Splits, s.Merges)
	}
	if got := countSmoke(t, client); got != 10 {
		t.Fatalf("%d records survive, want 10", got)
	}

	// A daemon whose arc of the ring held no written leaf has journaled no
	// delta: more records go in until each one has.
	for added := 0; ; added += 10 {
		short := -1
		for i := range dirs {
			if journaledDeltas(t, dirs[i]) == 0 {
				short = i
				break
			}
		}
		if short < 0 {
			break
		}
		if added == 400 {
			t.Fatalf("daemon %d journaled no delta after %d more records", short, added)
		}
		for j := 0; j < 10; j++ {
			rec := mlight.Record{Key: mlight.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("more-%d", added+j)}
			if err := client.Insert(rec); err != nil {
				t.Fatalf("insert %s: %v", rec.Data, err)
			}
		}
	}

	for i, d := range daemons {
		node, ok := d.DHT().(*overlay.Overlay).NodeAt(transport.NodeID(d.Addr()))
		if !ok {
			t.Fatalf("daemon %d has no node", i)
		}
		held := node.StoreSnapshot()
		restored := restoreCopy(t, dirs[i], wire.DaemonCodec{})
		if len(restored) != len(held) {
			t.Fatalf("daemon %d: the journal restores %d keys, the node holds %d", i, len(restored), len(held))
		}
		for k, v := range held {
			if got, ok := restored[k].([]byte); !ok || !bytes.Equal(got, v.([]byte)) {
				t.Fatalf("daemon %d: key %q restored as %x, held as %x", i, k, restored[k], v)
			}
		}
		w, err := dht.OpenWAL(dht.WALOptions{Dir: copyDir(t, dirs[i]), Codec: transport.Codec{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Restore(); !errors.Is(err, dht.ErrWALInconsistent) {
			t.Errorf("daemon %d: restored without deltas, err %v; want the log's deltas refused", i, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// spreadAddrs returns n loopback addresses, free a moment ago, whose ring
// positions are at least a fifth of the ring apart, so each daemon's arc is
// wide enough to own some of a small workload's leaves. An ephemeral port's
// position is random: three of them leave one arc under 1 % of the ring
// about one time in twenty.
func spreadAddrs(t *testing.T, n int) []string {
	t.Helper()
	var picked []string
	var held []net.Listener
	defer func() {
		for _, l := range held {
			//lint:allow droppederr the port is only being freed for the daemon
			l.Close()
		}
	}()
	pos := func(addr string) uint64 {
		id := dht.HashString(addr)
		return binary.BigEndian.Uint64(id[:8])
	}
	for len(picked) < n {
		if len(held) == 256 {
			t.Fatalf("%d free ports gave %d addresses a fifth of the ring apart", len(held), len(picked))
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
		addr := l.Addr().String()
		apart := true
		for _, p := range picked {
			if d := pos(addr) - pos(p); d < math.MaxUint64/5 || -d < math.MaxUint64/5 {
				apart = false
			}
		}
		if apart {
			picked = append(picked, addr)
		}
	}
	return picked
}

// journaledDeltas counts the deltas a restore of a copy of dir applies.
func journaledDeltas(t *testing.T, dir string) int {
	t.Helper()
	var n int
	restoreCopy(t, dir, countDeltas{n: &n})
	return n
}

// countDeltas is wire.DaemonCodec counting the deltas a restore applies.
type countDeltas struct {
	wire.DaemonCodec
	n *int
}

func (c countDeltas) ApplyDelta(base any, delta []byte) (any, error) {
	*c.n++
	return c.DaemonCodec.ApplyDelta(base, delta)
}

// restoreCopy replays a copy of a live daemon's journal directory: a second
// WAL on the directory itself would not open.
func restoreCopy(t *testing.T, dir string, codec dht.Codec) map[dht.Key]any {
	t.Helper()
	w, err := dht.OpenWAL(dht.WALOptions{Dir: copyDir(t, dir), Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}()
	state, err := w.Restore()
	if err != nil {
		t.Fatalf("restore %s: %v", dir, err)
	}
	return state
}

// copyDir copies a journal directory's two files into a fresh one.
func copyDir(t *testing.T, dir string) string {
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
