// Command mlightd runs one m-LIGHT overlay node as an OS process: a TCP
// listener, one DHT node (this process's index shard), an optional
// write-ahead log, and a background stabilization loop. A cluster is N
// mlightd processes pointed at each other with -seeds; clients reach it
// with mlight.Dial from any process.
//
// Boot a three-node cluster on one machine:
//
//	mlightd -listen 127.0.0.1:7401 -seeds 127.0.0.1:7402,127.0.0.1:7403 &
//	mlightd -listen 127.0.0.1:7402 -seeds 127.0.0.1:7401,127.0.0.1:7403 &
//	mlightd -listen 127.0.0.1:7403 -seeds 127.0.0.1:7401,127.0.0.1:7402 &
//
// (Every process may receive the full address list — each filters itself
// out.) SIGTERM or SIGINT drains gracefully: the node hands its shard to
// its overlay neighbours before exiting, so rolling restarts lose nothing.
//
// The -smoke mode is a self-test client for scripts and CI: it dials the
// cluster, optionally inserts deterministic records, runs a full-space
// range query, and exits non-zero unless every operation succeeded and the
// expected records came back. It also prints the client overlay's route
// length and direct-send counters (sent, declined, failed, view size), so a
// script can tell whether a stale view was exercised:
//
//	mlightd -smoke -seeds 127.0.0.1:7401,127.0.0.1:7402 -insert 32 -expect 32
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mlight"
	"mlight/internal/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mlightd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mlightd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "", "TCP listen address (host:port; empty binds an ephemeral loopback port)")
		seeds       = fs.String("seeds", "", "comma-separated peer daemon addresses (self is filtered out)")
		substrate   = fs.String("substrate", "chord", "overlay protocol: chord, pastry or kademlia")
		replication = fs.Int("replication", 1, "per-key copy count the overlay maintains")
		walDir      = fs.String("wal", "", "write-ahead-log directory for crash recovery (empty disables)")
		stabilize   = fs.Duration("stabilize", 500*time.Millisecond, "background stabilization cadence")
		seed        = fs.Int64("seed", 1, "overlay randomness seed")
		smoke       = fs.Bool("smoke", false, "run as a smoke-test client against -seeds instead of serving")
		insertN     = fs.Int("insert", 0, "smoke mode: insert this many deterministic records")
		expectN     = fs.Int("expect", 0, "smoke mode: require at least this many smoke records from a full-space range query")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var addrs []string
	for _, s := range strings.Split(*seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			addrs = append(addrs, s)
		}
	}
	if *smoke {
		return runSmoke(addrs, *substrate, *insertN, *expectN)
	}

	d, err := daemon.Start(daemon.Config{
		Listen:         *listen,
		Seeds:          addrs,
		Substrate:      *substrate,
		Replication:    *replication,
		WALDir:         *walDir,
		StabilizeEvery: *stabilize,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripts harvest ephemeral
	// ports; everything else is stderr.
	fmt.Printf("mlightd: listening on %s (substrate %s, replication %d)\n", d.Addr(), *substrate, *replication)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "mlightd: %v — draining\n", got)
	return d.Close()
}

// smokePoint spreads record i deterministically over the unit square, so
// independent smoke runs agree on what records exist.
func smokePoint(i int) mlight.Point {
	return mlight.Point{
		float64(i%31)/31 + 0.01,
		float64((i/31)%31)/31 + 0.01,
	}
}

func runSmoke(addrs []string, substrate string, insertN, expectN int) error {
	if len(addrs) == 0 {
		return fmt.Errorf("smoke mode needs -seeds")
	}
	client, err := mlight.Dial(addrs,
		mlight.WithSubstrate(substrate),
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6}),
	)
	if err != nil {
		return err
	}
	defer client.Close()

	for i := 0; i < insertN; i++ {
		rec := mlight.Record{Key: smokePoint(i), Data: fmt.Sprintf("smoke-%d", i)}
		if err := client.Insert(rec); err != nil {
			return fmt.Errorf("insert %d: %w", i, err)
		}
	}

	q, err := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{1, 1})
	if err != nil {
		return err
	}
	res, err := client.RangeQuery(q)
	if err != nil {
		return fmt.Errorf("range query: %w", err)
	}
	found := 0
	for _, r := range res.Records {
		if strings.HasPrefix(r.Data, "smoke-") {
			found++
		}
	}
	fmt.Printf("mlightd: smoke ok — %d smoke records (%d lookups, %d rounds)\n", found, res.Lookups, res.Rounds)
	ov := client.Overlay()
	fmt.Printf("mlightd: smoke overlay — %.2f hops per routed lookup, %s\n", ov.MeanRouteLength(), ov.DirectSummary())
	if found < expectN {
		return fmt.Errorf("smoke: found %d records, expected at least %d", found, expectN)
	}
	return nil
}
