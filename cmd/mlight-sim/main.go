// Command mlight-sim runs an end-to-end simulation of the full stack: a
// Chord, Pastry or Kademlia overlay on the message-level network simulator,
// an m-LIGHT index on top, a data-loading phase, a query phase, and an
// optional churn phase (graceful leaves and crashes with stabilization
// repair). It prints overlay statistics, per-peer storage distribution, and
// query costs — the view a deployer would want of the paper's system.
//
//	mlight-sim -overlay chord -peers 64 -n 20000 -queries 20 -churn 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
	"mlight/internal/overlay"
	"mlight/internal/peerquery"
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
		peerExec    = fs.Bool("peerquery", false, "also run the queries peer-to-peer and report simulated latency")
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

	printDistribution(ov, out)

	if *churn+*crashes > 0 {
		fmt.Fprintf(out, "churn: %d graceful leaves, %d crashes...\n", *churn, *crashes)
		nodes := ov.Nodes()
		if *churn+*crashes >= len(nodes) {
			return fmt.Errorf("churn %d would empty the %d-peer overlay", *churn+*crashes, len(nodes))
		}
		for i := 0; i < *churn+*crashes; i++ {
			victim := nodes[(i*7)%len(nodes)]
			if !contains(ov.Nodes(), victim) {
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
	if *peerExec {
		svc, err := peerquery.New(ov, net, 2, 28)
		if err != nil {
			return err
		}
		gen2, err := workload.NewRangeGenerator(2, *seed+9)
		if err != nil {
			return err
		}
		var totalLatency time.Duration
		peerLookups, ok2 := 0, 0
		for i := 0; i < *queries; i++ {
			q, err := gen2.Span(*span)
			if err != nil {
				return err
			}
			res, err := svc.RangeQuery(q)
			if err != nil {
				continue
			}
			ok2++
			totalLatency += res.Latency
			peerLookups += res.Lookups
		}
		if ok2 > 0 {
			fmt.Fprintf(out, "  peer-executed: %d ok; avg %.1f lookups, %v critical-path latency per query\n",
				ok2, float64(peerLookups)/float64(ok2), (totalLatency / time.Duration(ok2)).Round(time.Microsecond))
		}
	}
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

// printDistribution summarises per-peer bucket and record counts.
func printDistribution(ov *overlay.Overlay, out io.Writer) {
	type load struct {
		buckets, records int
	}
	perPeer := map[string]*load{}
	rangeErr := ov.Range(func(k dht.Key, v any) bool {
		b, ok := v.(core.Bucket)
		if !ok {
			return true
		}
		owner, err := ov.Owner(k)
		if err != nil {
			return true
		}
		l := perPeer[owner]
		if l == nil {
			l = &load{}
			perPeer[owner] = l
		}
		l.buckets++
		l.records += b.Load()
		return true
	})
	var recs []float64
	names := make([]string, 0, len(perPeer))
	for name := range perPeer {
		names = append(names, name)
	}
	sort.Strings(names)
	minR, maxR := 1<<62, 0
	for _, name := range names {
		l := perPeer[name]
		recs = append(recs, float64(l.records))
		if l.records < minR {
			minR = l.records
		}
		if l.records > maxR {
			maxR = l.records
		}
	}
	fmt.Fprintf(out, "storage distribution over %d data-holding peers:\n", len(perPeer))
	if rangeErr != nil {
		fmt.Fprintf(out, "  WARNING: walk incomplete (%v); counts below understate the load\n", rangeErr)
	}
	fmt.Fprintf(out, "  records per peer: min=%d max=%d mean=%.0f normalised variance=%.3f\n\n",
		minR, maxR, metrics.Mean(recs), metrics.NormalizedVariance(recs))
}

func contains(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
