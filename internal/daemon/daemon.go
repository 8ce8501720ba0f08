// Package daemon runs one overlay node as a long-lived network service:
// the process model behind cmd/mlightd. Each daemon owns one TCP transport,
// one overlay node (its index shard), an optional WAL for crash recovery,
// and a background stabilization loop. A cluster is simply N such processes
// pointed at each other through Config.Seeds; mlight.Dial turns any subset
// of their addresses into a Querier.
package daemon

import (
	"fmt"
	"sync"
	"time"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/substrate"
	"mlight/internal/transport"
	_ "mlight/internal/wire" // registers the ops a dialed client sends to be run here (wire.Op)
)

// Config describes one daemon process.
type Config struct {
	// Listen is the TCP address to serve on ("host:port"; ":7401" works).
	// Empty binds an ephemeral loopback port — useful in tests; real
	// deployments fix the port so peers can name it in Seeds.
	Listen string
	// Seeds lists other daemons' listen addresses. The daemon's own
	// address is filtered out, so every process in a cluster can receive
	// the same full peer list. Empty seeds make this daemon bootstrap a
	// fresh singleton overlay.
	Seeds []string
	// Substrate selects the overlay protocol: "chord" (default),
	// "pastry", or "kademlia". Every daemon of one cluster must agree.
	Substrate string
	// Replication is the per-key copy count the overlay maintains.
	Replication int
	// WALDir enables write-ahead durability for this node's shard: every
	// primary-store mutation is journaled before it is acknowledged, and a
	// restarted daemon re-inserts the recovered entries into the overlay
	// (routing them to their current owners, which may have changed while
	// it was gone).
	WALDir string
	// StabilizeEvery is the background maintenance cadence. 0 means
	// 500ms; negative disables the loop (tests drive Stabilize manually).
	StabilizeEvery time.Duration
	// Seed drives the overlay's internal randomness.
	Seed int64
	// JoinAttempts bounds how often a boot retries joining through Seeds
	// before giving up — daemons of one cluster typically start
	// concurrently, so the first attempts may race peers that are not
	// listening yet. 0 means 20.
	JoinAttempts int
	// JoinBackoff is the pause between join attempts. 0 means 250ms.
	JoinBackoff time.Duration
}

// Daemon is one running overlay node.
type Daemon struct {
	addr      transport.NodeID
	tr        *transport.TCP
	o         *overlay.Overlay
	wal       *dht.WAL
	stab      *overlay.AutoStabilizer
	closeOnce sync.Once
	closeErr  error
}

// walJournal adapts dht.WAL to the overlay.Journal hook.
type walJournal struct{ w *dht.WAL }

func (j walJournal) Record(recs []dht.WALRecord) error { return j.w.Append(recs) }

// Start boots a daemon: bind the listener, join (or bootstrap) the overlay,
// replay the WAL if one is configured, and begin stabilizing. The returned
// daemon serves until Close.
func Start(cfg Config) (*Daemon, error) {
	tr := transport.NewTCP(transport.TCPOptions{})
	fail := func(err error) (*Daemon, error) {
		//lint:allow droppederr the boot error is what the caller needs
		tr.Close()
		return nil, err
	}

	var addr transport.NodeID
	var err error
	if cfg.Listen == "" {
		addr, err = tr.Reserve()
	} else {
		addr, err = tr.Listen(cfg.Listen)
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: bind %q: %w", cfg.Listen, err)
	}

	// Every daemon may receive the cluster's full address list; drop our
	// own entry so a fresh cluster's first node bootstraps instead of
	// trying to join through itself.
	var seeds []transport.NodeID
	for _, s := range cfg.Seeds {
		if s != "" && s != string(addr) {
			seeds = append(seeds, transport.NodeID(s))
		}
	}

	o, err := substrate.New(cfg.Substrate, tr, overlay.Config{
		Seed:        cfg.Seed,
		Replication: cfg.Replication,
		Seeds:       seeds,
	})
	if err != nil {
		return fail(fmt.Errorf("daemon: %w", err))
	}
	dmn := &Daemon{addr: addr, tr: tr, o: o}

	// Cluster processes start concurrently, so the seeds may not answer
	// yet; retry the join with a flat backoff before declaring the boot
	// failed. AddNode deregisters the address on failure, so each retry
	// rebinds and starts clean.
	attempts := cfg.JoinAttempts
	if attempts <= 0 {
		attempts = 20
	}
	backoff := cfg.JoinBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	var joinErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
		}
		if _, joinErr = o.AddNode(addr); joinErr == nil {
			break
		}
	}
	if joinErr != nil {
		return fail(fmt.Errorf("daemon: join via %v: %w", cfg.Seeds, joinErr))
	}

	if cfg.WALDir != "" {
		if err := dmn.restoreWAL(cfg.WALDir); err != nil {
			return fail(err)
		}
	}

	every := cfg.StabilizeEvery
	if every == 0 {
		every = 500 * time.Millisecond
	}
	if every > 0 {
		dmn.stab = o.StartAutoStabilize(every)
	}
	return dmn, nil
}

// restoreWAL opens the journal, re-inserts recovered entries through the
// overlay (they route to their current owners — ownership may have moved
// while this daemon was down), compacts the log to the node's post-replay
// shard, and installs the journal hook for all subsequent mutations.
func (dmn *Daemon) restoreWAL(dir string) error {
	w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: transport.Codec{}})
	if err != nil {
		return fmt.Errorf("daemon: open WAL %q: %w", dir, err)
	}
	restored, err := w.Restore()
	if err != nil {
		//lint:allow droppederr the replay error is what the caller needs
		w.Close()
		return fmt.Errorf("daemon: replay WAL %q: %w", dir, err)
	}
	for k, v := range restored {
		if err := dmn.o.Put(k, v); err != nil {
			//lint:allow droppederr the re-insert error is what the caller needs
			w.Close()
			return fmt.Errorf("daemon: restore key %q: %w", k, err)
		}
	}
	node, ok := dmn.o.NodeAt(dmn.addr)
	if !ok {
		//lint:allow droppederr the lookup error is what the caller needs
		w.Close()
		return fmt.Errorf("daemon: node %q vanished during restore", dmn.addr)
	}
	// Reset the log to exactly the shard this node holds after replay:
	// entries that now live elsewhere drop out instead of being re-replayed
	// (and re-routed) on every future boot. Mutations arriving between this
	// snapshot and SetJournal below are the boot's durability gap; the
	// address is not yet published to clients, so only overlay maintenance
	// traffic can land in it.
	if err := w.Compact(node.StoreSnapshot()); err != nil {
		//lint:allow droppederr the compaction error is what the caller needs
		w.Close()
		return fmt.Errorf("daemon: compact WAL %q: %w", dir, err)
	}
	node.SetJournal(walJournal{w: w})
	dmn.wal = w
	return nil
}

// Addr returns the daemon's dialable listen address — what peers put in
// Seeds and clients pass to mlight.Dial.
func (dmn *Daemon) Addr() string { return string(dmn.addr) }

// DHT exposes the daemon's overlay as a dht.DHT, for in-process smoke tests.
func (dmn *Daemon) DHT() dht.DHT { return dmn.o }

// Close drains the daemon: the stabilization loop stops, the node leaves
// the overlay gracefully (handing its shard to its neighbours — this is the
// SIGTERM path, so a rolling restart loses nothing), the WAL is flushed and
// closed, and the transport is torn down. Safe to call more than once.
func (dmn *Daemon) Close() error {
	dmn.closeOnce.Do(func() {
		if dmn.stab != nil {
			dmn.stab.Shutdown()
		}
		// Leave gracefully, but a failed handoff (the whole cluster may be
		// shutting down at once) must not stop local teardown.
		leaveErr := dmn.o.RemoveNode(dmn.addr)
		var walErr error
		if dmn.wal != nil {
			if err := dmn.wal.Sync(); err != nil {
				walErr = err
			}
			if err := dmn.wal.Close(); err != nil && walErr == nil {
				walErr = err
			}
		}
		trErr := dmn.tr.Close()
		switch {
		case leaveErr != nil:
			dmn.closeErr = fmt.Errorf("daemon: leave: %w", leaveErr)
		case walErr != nil:
			dmn.closeErr = fmt.Errorf("daemon: wal: %w", walErr)
		case trErr != nil:
			dmn.closeErr = fmt.Errorf("daemon: transport: %w", trErr)
		}
	})
	return dmn.closeErr
}
