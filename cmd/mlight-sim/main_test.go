package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
)

func TestRunChordWithChurn(t *testing.T) {
	err := run([]string{
		"-overlay", "chord", "-peers", "16", "-n", "1500",
		"-queries", "5", "-churn", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCrashWithReplication: -replication reaches every overlay, so two
// crashes with three copies lose nothing on any of them.
func TestRunCrashWithReplication(t *testing.T) {
	for _, overlay := range []string{"chord", "pastry", "kademlia"} {
		var out strings.Builder
		err := run([]string{
			"-overlay", overlay, "-peers", "16", "-n", "1500",
			"-queries", "5", "-crash", "2", "-replication", "3",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", overlay, err)
		}
		if !strings.Contains(out.String(), "replication factor 3 absorbed the crashes") {
			t.Errorf("%s: queries failed after crashes despite -replication 3:\n%s", overlay, out.String())
		}
	}
}

func TestRunPastry(t *testing.T) {
	err := run([]string{
		"-overlay", "pastry", "-peers", "12", "-n", "1000", "-queries", "4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-overlay", "dummy"}, io.Discard); err == nil {
		t.Error("unknown overlay accepted")
	}
	if err := run([]string{"-bad-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-peers", "4", "-n", "100", "-churn", "4"}, io.Discard); err == nil {
		t.Error("churn emptying the overlay accepted")
	}
}

func TestRunKademlia(t *testing.T) {
	err := run([]string{
		"-overlay", "kademlia", "-peers", "12", "-n", "800", "-queries", "3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRouteLengthIsTheLoadPhases: the printed mean overlay route length is
// the load phase's hops over its lookups; the build's join and finger routes
// count in neither.
func TestRouteLengthIsTheLoadPhases(t *testing.T) {
	const peers, records, seed = 16, 1500, 1
	var out strings.Builder
	err := run([]string{
		"-overlay", "chord", "-peers", fmt.Sprint(peers), "-n", fmt.Sprint(records),
		"-queries", "1", "-seed", fmt.Sprint(seed),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(time.Millisecond)})
	ov, err := substrate.Cluster("chord", net, peers, overlay.Config{Seed: seed, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildHops := ov.Hops.Load()
	ov.Hops.Reset()
	ov.Lookups.Reset()
	ix, err := core.New(ov, index.Tuning{Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range dataset.Generate(records, seed) {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if buildHops == 0 || ov.Lookups.Load() == 0 {
		t.Fatalf("reference run saw %d build hops and %d load lookups", buildHops, ov.Lookups.Load())
	}
	want := fmt.Sprintf("mean overlay route length: %.2f hops per DHT op", float64(ov.Hops.Load())/float64(ov.Lookups.Load()))
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

// TestCensusRoutesNothing: the printed census is ix.Census of a reference
// build, charged to the nodes whose stores hold each key, and taking it sends
// no RPC and counts no route.
func TestCensusRoutesNothing(t *testing.T) {
	const peers, records, seed = 16, 1500, 1
	var out strings.Builder
	err := run([]string{
		"-overlay", "chord", "-peers", fmt.Sprint(peers), "-n", fmt.Sprint(records),
		"-queries", "1", "-seed", fmt.Sprint(seed),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(time.Millisecond)})
	ov, err := substrate.Cluster("chord", net, peers, overlay.Config{Seed: seed, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.New(ov, index.Tuning{Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range dataset.Generate(records, seed) {
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	hops, lookups, rpcs := ov.Hops.Load(), ov.Lookups.Load(), net.RPCs.Load()
	var printed strings.Builder
	if err := printCensus(ov, ix, &printed); err != nil {
		t.Fatal(err)
	}
	if h, l, r := ov.Hops.Load(), ov.Lookups.Load(), net.RPCs.Load(); h != hops || l != lookups || r != rpcs {
		t.Errorf("census moved hops %d → %d, lookups %d → %d, RPCs %d → %d", hops, h, lookups, l, rpcs, r)
	}
	c, err := ix.Census(holders(ov))
	if err != nil {
		t.Fatal(err)
	}
	if c.Leaves < 2 || len(c.PeerRecords) != peers {
		t.Fatalf("reference census has %d leaves over %d peers", c.Leaves, len(c.PeerRecords))
	}
	for _, want := range []string{
		fmt.Sprintf("storage distribution over %d peers:", peers),
		fmt.Sprintf("records per peer: min=%d max=%d mean=%.0f normalised variance=%.3f",
			slices.Min(c.PeerRecords), slices.Max(c.PeerRecords), float64(records)/peers, c.Variance),
		fmt.Sprintf("tree: %d leaves (%d empty), %d tombstones, %d marked buckets", c.Leaves, c.Empty, c.Tombstones, c.Marked),
	} {
		if !strings.Contains(out.String(), want) || !strings.Contains(printed.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
