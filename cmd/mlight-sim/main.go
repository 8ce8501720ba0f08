// Command mlight-sim runs an end-to-end simulation of the full stack: a
// Chord, Pastry or Kademlia overlay on the message-level network simulator,
// an m-LIGHT index on top, a data-loading phase, a query phase, and an
// optional churn phase (graceful leaves and crashes with stabilization
// repair). It prints overlay statistics, the tree's census (per-peer storage,
// stored buckets by kind) and query costs — a deployer's view of the system.
//
//	mlight-sim -overlay chord -peers 64 -n 20000 -queries 20 -churn 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlight-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mlight-sim", flag.ContinueOnError)
	var (
		overlayKind = fs.String("overlay", "chord", "overlay substrate: chord, pastry, or kademlia")
		peers       = fs.Int("peers", 64, "number of peers")
		n           = fs.Int("n", 20000, "records to load")
		theta       = fs.Int("theta", 100, "θsplit")
		queries     = fs.Int("queries", 20, "range queries to run")
		span        = fs.Float64("span", 0.2, "range-query span (area)")
		churn       = fs.Int("churn", 0, "peers that leave gracefully mid-run")
		crashes     = fs.Int("crash", 0, "peers that crash mid-run (their buckets are lost; queries touching them fail)")
		seed        = fs.Int64("seed", 1, "random seed")
		latency     = fs.Duration("latency", time.Millisecond, "simulated one-way link latency")
		replication = fs.Int("replication", 1, "copies of each key (crash tolerance; each overlay caps it at its neighbour-set size)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(out, "building %s overlay with %d peers...\n", *overlayKind, *peers)
	start := time.Now()
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(*latency)})
	ov, err := substrate.Cluster(*overlayKind, net, *peers, overlay.Config{Seed: *seed, Replication: *replication})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  overlay up in %v (%d RPCs so far)\n\n", time.Since(start).Round(time.Millisecond), net.RPCs.Load())
	// The route length below is the load phase's: the build's join and
	// finger routes are hops with no DHT operation behind them.
	ov.Hops.Reset()
	ov.Lookups.Reset()

	ix, err := core.New(ov, index.Tuning{Capacity: *theta})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "loading %d records through the index...\n", *n)
	start = time.Now()
	records := dataset.Generate(*n, *seed)
	for i, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return fmt.Errorf("insert #%d: %w", i, err)
		}
	}
	s := ix.Stats()
	fmt.Fprintf(out, "  loaded in %v: %s\n", time.Since(start).Round(time.Millisecond), s)
	fmt.Fprintf(out, "  mean overlay route length: %.2f hops per DHT op\n", ov.MeanRouteLength())
	fmt.Fprintf(out, "  client-mode view: %s (this overlay hosts its peers, so it routes)\n", ov.DirectSummary())
	fmt.Fprintf(out, "  simulated network RTT accumulated: %v\n\n", net.SimulatedRTT().Round(time.Millisecond))

	if err := printCensus(ov, ix, out); err != nil {
		return err
	}

	if *churn+*crashes > 0 {
		fmt.Fprintf(out, "churn: %d graceful leaves, %d crashes...\n", *churn, *crashes)
		nodes := ov.Nodes()
		if *churn+*crashes >= len(nodes) {
			return fmt.Errorf("churn %d would empty the %d-peer overlay", *churn+*crashes, len(nodes))
		}
		for i := 0; i < *churn+*crashes; i++ {
			victim := nodes[(i*7)%len(nodes)]
			if !slices.Contains(ov.Nodes(), victim) {
				continue
			}
			if i < *churn {
				if err := ov.RemoveNode(victim); err != nil {
					return err
				}
				fmt.Fprintf(out, "  %s left gracefully (buckets handed over)\n", victim)
			} else {
				if err := ov.CrashNode(victim); err != nil {
					return err
				}
				fmt.Fprintf(out, "  %s crashed (its buckets are lost)\n", victim)
			}
			ov.Stabilize(2)
		}
		fmt.Fprintf(out, "  overlay now has %d peers\n\n", ov.NumNodes())
	}

	fmt.Fprintf(out, "running %d range queries of span %.2f...\n", *queries, *span)
	gen, err := workload.NewRangeGenerator(2, *seed+9)
	if err != nil {
		return err
	}
	totalRecords, totalLookups, totalRounds := 0, 0, 0
	failed := 0
	for i := 0; i < *queries; i++ {
		q, err := gen.Span(*span)
		if err != nil {
			return err
		}
		res, err := ix.RangeQuery(q)
		if err != nil {
			failed++
			continue
		}
		totalRecords += len(res.Records)
		totalLookups += res.Lookups
		totalRounds += res.Rounds
	}
	done := *queries - failed
	if done == 0 {
		return fmt.Errorf("all %d queries failed", *queries)
	}
	fmt.Fprintf(out, "  %d ok, %d failed; avg %.0f records, %.1f DHT-lookups, %.1f rounds per query\n",
		done, failed,
		float64(totalRecords)/float64(done),
		float64(totalLookups)/float64(done),
		float64(totalRounds)/float64(done))
	if *churn > 0 && *crashes == 0 && failed == 0 {
		fmt.Fprintln(out, "  (index fully available after graceful churn: departing peers handed their buckets over)")
	}
	if *crashes > 0 && failed > 0 {
		fmt.Fprintln(out, "  (failures are expected after crashes without replication; rerun with -replication 3 to survive them)")
	}
	if *crashes > 0 && failed == 0 && *replication > 1 {
		fmt.Fprintf(out, "  (replication factor %d absorbed the crashes: replicas were promoted on the survivors)\n", *replication)
	}
	return nil
}

// printCensus prints the tree's census: records per peer, each charged to the
// peer whose primary store holds it, and the stored buckets by kind. It reads
// the peers' stores in place, so it routes nothing.
func printCensus(ov *overlay.Overlay, ix *core.Index, out io.Writer) error {
	c, err := ix.Census(holders(ov))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "storage distribution over %d peers:\n", len(c.PeerRecords))
	fmt.Fprintf(out, "  records per peer: min=%d max=%d mean=%.0f normalised variance=%.3f\n",
		slices.Min(c.PeerRecords), slices.Max(c.PeerRecords), float64(c.Records)/float64(len(c.PeerRecords)), c.Variance)
	fmt.Fprintf(out, "  tree: %d leaves (%d empty), %d tombstones, %d marked buckets\n\n", c.Leaves, c.Empty, c.Tombstones, c.Marked)
	return nil
}

// holders returns the census's owner over ov — the managed node whose primary
// store holds a key — and the managed nodes.
func holders(ov *overlay.Overlay) (func(dht.Key) (string, error), []string) {
	held := make(map[dht.Key]string)
	var peers []string
	for _, n := range ov.LocalNodes() {
		addr := string(n.Addr())
		peers = append(peers, addr)
		for k := range n.StoreSnapshot() {
			held[k] = addr
		}
	}
	return func(k dht.Key) (string, error) { return held[k], nil }, peers
}
