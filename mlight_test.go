package mlight_test

import (
	"fmt"
	"testing"

	"mlight"
)

// TestPublicAPIQuickstart exercises the README's quick-start path verbatim.
func TestPublicAPIQuickstart(t *testing.T) {
	d := mlight.NewLocalDHT(16)
	ix, err := mlight.New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(mlight.Record{Key: mlight.Point{0.41, 0.73}, Data: "pizza"}); err != nil {
		t.Fatal(err)
	}
	q, err := mlight.NewRect(mlight.Point{0.4, 0.7}, mlight.Point{0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Data != "pizza" {
		t.Fatalf("RangeQuery = %+v", res.Records)
	}
	if s := ix.Stats(); s.DHTLookups == 0 {
		t.Error("no DHT operations recorded")
	}
}

// TestIndexOverEverySubstrate runs the same workload over the local DHT,
// the Chord cluster, and the Pastry cluster — the paper's "adaptable to any
// DHT substrate" claim through the public API.
func TestIndexOverEverySubstrate(t *testing.T) {
	substrates := map[string]func(t *testing.T) mlight.DHT{
		"local": func(t *testing.T) mlight.DHT {
			return mlight.NewLocalDHT(16)
		},
		"chord": func(t *testing.T) mlight.DHT {
			ring, _, err := mlight.NewChordCluster(12, 1)
			if err != nil {
				t.Fatal(err)
			}
			return ring
		},
		"pastry": func(t *testing.T) mlight.DHT {
			o, _, err := mlight.NewPastryCluster(12, 1)
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
		"kademlia": func(t *testing.T) mlight.DHT {
			o, _, err := mlight.NewKademliaCluster(12, 1)
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
	}
	for name, build := range substrates {
		t.Run(name, func(t *testing.T) {
			ix, err := mlight.New(build(t), mlight.WithCapacity(8))
			if err != nil {
				t.Fatal(err)
			}
			var want int
			for i := 0; i < 120; i++ {
				p := mlight.Point{float64(i%11) / 11, float64(i%7) / 7}
				if err := ix.Insert(mlight.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
					t.Fatalf("Insert #%d: %v", i, err)
				}
				if p[0] >= 0.25 && p[0] <= 0.75 && p[1] >= 0.25 && p[1] <= 0.75 {
					want++
				}
			}
			q, err := mlight.NewRect(mlight.Point{0.25, 0.25}, mlight.Point{0.75, 0.75})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != want {
				t.Fatalf("RangeQuery over %s = %d records, want %d", name, len(res.Records), want)
			}
			// The parallel variant agrees.
			pres, err := ix.RangeQueryParallel(q, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(pres.Records) != want {
				t.Fatalf("parallel RangeQuery over %s = %d records, want %d", name, len(pres.Records), want)
			}
		})
	}
}

// TestRetryLayerOverLossyChord exercises Options.Retry through the public
// API: an index loaded losslessly keeps answering range queries while the
// simulated network drops 5% of messages.
func TestRetryLayerOverLossyChord(t *testing.T) {
	ring, net, err := mlight.NewChordCluster(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mlight.New(ring, mlight.WithCapacity(8),
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 8, Seed: 1, Sleep: mlight.NoSleep}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		p := mlight.Point{float64(i%11) / 11, float64(i%7) / 7}
		if err := ix.Insert(mlight.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
	}
	q, err := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net.SetDropRate(0.05)
	for i := 0; i < 5; i++ {
		res, err := ix.RangeQueryParallel(q, 2)
		if err != nil {
			t.Fatalf("query #%d under 5%% loss: %v", i, err)
		}
		if len(res.Records) != 120 {
			t.Fatalf("query #%d = %d records, want 120", i, len(res.Records))
		}
	}
	s := ix.ResilienceStats().Snapshot()
	if s.Ops == 0 || s.Attempts < s.Ops {
		t.Errorf("resilience stats = %+v, want ops > 0 and attempts ≥ ops", s)
	}
	if s.Recovered == 0 {
		t.Errorf("no operation recovered under 5%% loss (retries %d); stats = %+v", s.Retries, s)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, _, err := mlight.NewChordCluster(0, 1); err == nil {
		t.Error("empty chord cluster accepted")
	}
	if _, _, err := mlight.NewPastryCluster(0, 1); err == nil {
		t.Error("empty pastry cluster accepted")
	}
	if _, _, err := mlight.NewKademliaCluster(0, 1); err == nil {
		t.Error("empty kademlia cluster accepted")
	}
}

func TestReplicatedClusters(t *testing.T) {
	builders := map[string]func() (mlight.DHT, error){
		"pastry": func() (mlight.DHT, error) {
			o, _, err := mlight.NewReplicatedPastryCluster(10, 3, 1)
			return o, err
		},
		"kademlia": func() (mlight.DHT, error) {
			o, _, err := mlight.NewReplicatedKademliaCluster(10, 3, 1)
			return o, err
		},
		"chord": func() (mlight.DHT, error) {
			o, _, err := mlight.NewReplicatedChordCluster(10, 3, 1)
			return o, err
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			d, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := mlight.New(d, mlight.WithCapacity(10))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 80; i++ {
				p := mlight.Point{float64(i%9) / 9, float64(i%11) / 11}
				if err := ix.Insert(mlight.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
					t.Fatalf("insert #%d: %v", i, err)
				}
			}
			q, err := mlight.NewRect(mlight.Point{0, 0}, mlight.Point{1, 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.RangeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != 80 {
				t.Fatalf("whole-space query over replicated %s = %d records", name, len(res.Records))
			}
		})
	}
	if _, _, err := mlight.NewReplicatedPastryCluster(0, 3, 1); err == nil {
		t.Error("empty replicated pastry cluster accepted")
	}
	if _, _, err := mlight.NewReplicatedKademliaCluster(0, 3, 1); err == nil {
		t.Error("empty replicated kademlia cluster accepted")
	}
}
