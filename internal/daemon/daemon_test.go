// The daemon suite boots real daemons in-process — every byte between
// them, and between them and the Dial clients, crosses loopback TCP — and
// exercises the full deployment story: cluster formation, a dial-anywhere
// client, graceful drain, and WAL crash recovery.
package daemon_test

import (
	"fmt"
	"testing"
	"time"

	"mlight"
	"mlight/internal/daemon"
	"mlight/internal/dht/dhttest"
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
