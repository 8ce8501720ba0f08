package peerquery

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/index"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

// buildStack assembles the full system: simnet with latency, an overlay of
// the named protocol, an m-LIGHT index loaded with data, and the peer-query
// service.
func buildStack(t *testing.T, protocol string, peers, records int, latency time.Duration) (*Service, *core.Index, []spatial.Record) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.ConstantLatency(latency)})
	ring, err := substrate.New(protocol, net, overlay.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		if _, err := ring.AddNode(simnet.NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	ix, err := core.New(ring, index.Tuning{Capacity: 40, MergeThreshold: 20, MaxDepth: 22})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Generate(records, 3)
	for i, rec := range recs {
		if err := ix.Insert(rec); err != nil {
			t.Fatalf("insert #%d: %v", i, err)
		}
	}
	svc, err := New(ring, net, 2, 22)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ix, recs
}

// TestPeerQueryMatchesClientQuery: on every overlay, peer-executed queries
// return exactly the record set the client-driven algorithm returns.
func TestPeerQueryMatchesClientQuery(t *testing.T) {
	for _, protocol := range substrate.Names {
		t.Run(protocol, func(t *testing.T) {
			svc, ix, _ := buildStack(t, protocol, 16, 4000, time.Millisecond)
			gen, err := workload.NewRangeGenerator(2, 9)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				q, err := gen.Span(0.15)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ix.RangeQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := svc.RangeQuery(q)
				if err != nil {
					t.Fatalf("peer RangeQuery(%v): %v", q, err)
				}
				if g, w := recordSet(got.Records), recordSet(want.Records); !reflect.DeepEqual(g, w) {
					t.Fatalf("peer query returned %d records, client query %d, and the sets differ", len(g), len(w))
				}
				if got.Lookups < 1 {
					t.Fatalf("no lookups recorded: %+v", got)
				}
				if got.Latency <= 0 {
					t.Fatalf("no latency recorded: %+v", got)
				}
			}
		})
	}
}

// recordSet renders records as a sorted list of strings, so two result sets
// compare regardless of the order the pieces arrived in.
func recordSet(recs []spatial.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%v|%v", r.Key, r.Data)
	}
	sort.Strings(out)
	return out
}

// TestPeerQuerySmallRangeInsideLeaf exercises the fallback path (LCA not
// internal).
func TestPeerQuerySmallRangeInsideLeaf(t *testing.T) {
	svc, ix, recs := buildStack(t, "chord", 8, 600, time.Millisecond)
	// A tiny box around one known record.
	p := recs[17].Key
	lo := spatial.Point{clamp01(p[0] - 0.001), clamp01(p[1] - 0.001)}
	hi := spatial.Point{clamp01(p[0] + 0.001), clamp01(p[1] + 0.001)}
	q, err := spatial.NewRect(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) || len(got.Records) == 0 {
		t.Fatalf("fallback query = %d records, want %d (≥1)", len(got.Records), len(want.Records))
	}
}

// TestDriversAgreeOnOddRectangles feeds both drivers rectangles the planner's
// one prologue must judge: each is refused by both with the same error, or
// answered by both with the same record set.
func TestDriversAgreeOnOddRectangles(t *testing.T) {
	svc, ix, _ := buildStack(t, "chord", 8, 600, time.Millisecond)
	for _, tc := range []struct {
		name    string
		q       spatial.Rect
		wantErr bool
	}{
		{"inverted", spatial.Rect{Lo: spatial.Point{0.6, 0.6}, Hi: spatial.Point{0.4, 0.4}}, true},
		{"inverted in one dim", spatial.Rect{Lo: spatial.Point{0.2, 0.6}, Hi: spatial.Point{0.4, 0.4}}, true},
		{"too few dims", spatial.Rect{Lo: spatial.Point{0.1}, Hi: spatial.Point{0.2}}, true},
		{"too many dims", spatial.Rect{Lo: spatial.Point{0.1, 0.1, 0.1}, Hi: spatial.Point{0.2, 0.2, 0.2}}, true},
		{"corners disagree on dims", spatial.Rect{Lo: spatial.Point{0.1, 0.1}, Hi: spatial.Point{0.2}}, true},
		{"beyond the cube on every side", spatial.Rect{Lo: spatial.Point{-0.5, -0.5}, Hi: spatial.Point{1.5, 1.5}}, false},
		{"beyond the cube in one dim", spatial.Rect{Lo: spatial.Point{0.1, -0.5}, Hi: spatial.Point{0.3, 1.5}}, false},
		{"wholly outside the cube", spatial.Rect{Lo: spatial.Point{1.2, 1.2}, Hi: spatial.Point{1.4, 1.4}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, clientErr := ix.RangeQuery(tc.q)
			got, peerErr := svc.RangeQuery(tc.q)
			if (clientErr != nil) != tc.wantErr {
				t.Fatalf("client-driven: err = %v, want an error: %v", clientErr, tc.wantErr)
			}
			if tc.wantErr {
				if peerErr == nil || peerErr.Error() != clientErr.Error() {
					t.Fatalf("client-driven refused with %q, peer-executed answered %v", clientErr, peerErr)
				}
				return
			}
			if peerErr != nil {
				t.Fatalf("client-driven answered, peer-executed refused: %v", peerErr)
			}
			if g, w := recordSet(got.Records), recordSet(want.Records); !reflect.DeepEqual(g, w) {
				t.Fatalf("peer-executed returned %d records, client-driven %d, and the sets differ", len(g), len(w))
			}
		})
	}
}

// TestLatencyScalesWithModel: doubling the link latency doubles the
// measured critical path (all costs are latency-proportional).
func TestLatencyScalesWithModel(t *testing.T) {
	q, err := spatial.NewRect(spatial.Point{0.2, 0.3}, spatial.Point{0.6, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	svc1, _, _ := buildStack(t, "chord", 12, 3000, time.Millisecond)
	res1, err := svc1.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	svc2, _, _ := buildStack(t, "chord", 12, 3000, 2*time.Millisecond)
	res2, err := svc2.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Latency <= 0 || res2.Latency != 2*res1.Latency {
		t.Errorf("latency did not scale with the model: %v vs %v", res1.Latency, res2.Latency)
	}
	// Same answers, same bandwidth regardless of latency model.
	if len(res1.Records) != len(res2.Records) || res1.Lookups != res2.Lookups {
		t.Errorf("results differ across latency models: %+v vs %+v",
			res1.Lookups, res2.Lookups)
	}
}

// TestLatencyBelowSequentialSum: parallel branch forwarding means the
// critical path is shorter than the sum of all per-forward costs would be,
// for a range wide enough to decompose.
func TestLatencyBelowSequentialSum(t *testing.T) {
	svc, _, _ := buildStack(t, "chord", 16, 4000, time.Millisecond)
	q, err := spatial.NewRect(spatial.Point{0.1, 0.1}, spatial.Point{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups < 4 {
		t.Skipf("query decomposed into only %d forwards", res.Lookups)
	}
	// With L=1ms one-way, every forward costs at least 1ms delivery; a
	// fully sequential execution would take ≥ lookups × 1ms.
	sequentialFloor := time.Duration(res.Lookups) * time.Millisecond
	if res.Latency >= sequentialFloor {
		t.Errorf("critical path %v not below sequential floor %v (%d forwards)",
			res.Latency, sequentialFloor, res.Lookups)
	}
}

func TestServiceValidation(t *testing.T) {
	net := simnet.New(simnet.Options{})
	ring, err := substrate.New("chord", net, overlay.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ring, net, 0, 20); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := New(ring, net, 2, 200); err == nil {
		t.Error("excessive depth accepted")
	}
	svc, err := New(ring, net, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RangeQuery(spatial.Rect{Lo: spatial.Point{0.1}, Hi: spatial.Point{0.2}}); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, err := svc.RangeQuery(spatial.Rect{Lo: spatial.Point{0.1, 0.1}, Hi: spatial.Point{0.2, 0.2}}); err == nil {
		t.Error("query on empty ring succeeded")
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
