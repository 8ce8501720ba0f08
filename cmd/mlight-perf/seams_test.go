package main

import (
	"errors"
	"testing"

	"mlight/internal/chord"
	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/simnet"
	"mlight/internal/transport"
)

// spansOf runs fn as one recorded operation and returns its spans (the op
// span last).
func spansOf(rec *recorder, fn func()) []span {
	rec.beginOp()
	start := rec.now()
	fn()
	rec.endOp(opInsert, start, rec.now())
	return append([]span(nil), rec.cur...)
}

func names(rec *recorder, spans []span, lvl level) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		if s.lvl == lvl && lvl != levelOp {
			out[rec.names[s.name]]++
		}
	}
	return out
}

// A timedDHT must offer every optional capability, or the stack above it
// silently changes path: without Range, BulkLoad refuses the substrate.
func TestTimedDHTForwardsCapabilities(t *testing.T) {
	rec := newRecorder(layerOf{})
	td := newTimedDHT(dht.MustNewLocal(8), rec, levelDHT, levelFn)
	ix, err := core.New(td, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Generate(500, 1)
	if err := ix.BulkLoad(recs); err != nil {
		t.Fatalf("BulkLoad through the seam: %v", err)
	}
	if n, err := ix.Size(); err != nil || n != len(recs) {
		t.Fatalf("Size through the seam = %d, %v; want %d", n, err, len(recs))
	}

	// Native batches go down whole: one span as wide as the batch.
	keys := []dht.Key{"a", "b", "c"}
	spans := spansOf(rec, func() { td.GetBatch(keys, 4) })
	if got := names(rec, spans, levelDHT); got["dht.GetBatch"] != 1 || got["dht.Get"] != 0 {
		t.Errorf("native GetBatch recorded %v, want one dht.GetBatch span", got)
	}
	if spans[0].width != 3 {
		t.Errorf("native GetBatch width = %d, want 3", spans[0].width)
	}

	// A substrate without batch support gets the package's worker pool,
	// and every pooled call is a span of its own.
	plain := newTimedDHT(nopDHT{}, rec, levelDHT, levelFn)
	spans = spansOf(rec, func() {
		plain.GetBatch(keys, 4)
		errs := plain.PutBatch([]dht.PutOp{{Key: "a"}, {Key: "b"}}, 4)
		errs = append(errs, plain.ApplyBatch([]dht.ApplyOp{{Key: "a"}}, 4)...)
		if err := errors.Join(errs...); err != nil {
			t.Error(err)
		}
	})
	got := names(rec, spans, levelDHT)
	want := map[string]int{"dht.GetBatch": 1, "dht.Get": 3, "dht.PutBatch": 1, "dht.Put": 2, "dht.ApplyBatch": 1, "dht.Apply": 1}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("pooled batches recorded %d %s spans, want %d (all: %v)", got[name], name, n, got)
		}
	}
	if err := plain.Range(func(dht.Key, any) bool { return true }); !errors.Is(err, dht.ErrNotEnumerable) {
		t.Errorf("Range over a non-enumerable substrate = %v, want ErrNotEnumerable", err)
	}
}

// The ApplyFunc handed through a seam is the caller's code: it must be
// recorded as its own span, inside the Apply span.
func TestTimedDHTWrapsApplyFunc(t *testing.T) {
	rec := newRecorder(layerOf{})
	td := newTimedDHT(dht.MustNewLocal(8), rec, levelDHT, levelFn)
	ran := false
	spans := spansOf(rec, func() {
		if err := td.Apply("k", func(cur any, exists bool) (any, bool) { ran = true; return 1, true }); err != nil {
			t.Error(err)
		}
	})
	if !ran {
		t.Fatal("the wrapped ApplyFunc did not run")
	}
	var fn, apply *span
	for i := range spans {
		switch spans[i].lvl {
		case levelFn:
			fn = &spans[i]
		case levelDHT:
			apply = &spans[i]
		}
	}
	if fn == nil || apply == nil || fn.start < apply.start || fn.end > apply.end {
		t.Fatalf("fn span %+v not inside apply span %+v", fn, apply)
	}
}

// The timed transport must carry the InlineDelivery marker exactly when
// the wrapped transport does: chord.Ring.Apply picks the closure-carrying
// path or the GetVer+CAS protocol by it.
func TestTimedTransportKeepsInlineMarker(t *testing.T) {
	rec := newRecorder(layerOf{})
	if !transport.SupportsInline(newTimedTransport(simnet.New(simnet.Options{}), rec)) {
		t.Error("wrapped simnet lost InlineDelivery")
	}
	tcp := transport.NewTCP(transport.TCPOptions{})
	defer tcp.Close()
	if transport.SupportsInline(newTimedTransport(tcp, rec)) {
		t.Error("wrapped TCP gained InlineDelivery")
	}

	ring := chord.NewRing(newTimedTransport(simnet.New(simnet.Options{}), rec), chord.Config{Seed: 1})
	for _, id := range []transport.NodeID{"a", "b", "c"} {
		if _, err := ring.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize(2)
	spans := spansOf(rec, func() {
		if err := ring.Apply("k", func(any, bool) (any, bool) { return 1, true }); err != nil {
			t.Error(err)
		}
	})
	rpcs := names(rec, spans, levelRPC)
	if rpcs["rpc.chord.applyReq"] != 1 || rpcs["rpc.dht.CASReq"] != 0 {
		t.Errorf("Apply over wrapped simnet used %v, want one chord.applyReq and no CAS", rpcs)
	}
	if names(rec, spans, levelHandler)["handler"] == 0 {
		t.Error("handlers registered through the seam recorded no span")
	}
}

type crashProbe struct{ crashed, restarted *bool }

func (crashProbe) HandleRPC(transport.NodeID, any) (any, error) { return nil, nil }
func (c crashProbe) OnCrash()                                   { *c.crashed = true }
func (c crashProbe) OnRestart()                                 { *c.restarted = true }

func TestTimedHandlerForwardsLifecycleHooks(t *testing.T) {
	var crashed, restarted bool
	net := newTimedTransport(simnet.New(simnet.Options{}), newRecorder(layerOf{}))
	if err := net.Register("n", crashProbe{&crashed, &restarted}); err != nil {
		t.Fatal(err)
	}
	if err := net.Crash("n"); err != nil {
		t.Fatal(err)
	}
	if err := net.Restart("n"); err != nil {
		t.Fatal(err)
	}
	if !crashed || !restarted {
		t.Errorf("crashed=%v restarted=%v, want both hooks forwarded", crashed, restarted)
	}
}

// Self time is a span's duration minus the union of deeper spans inside
// it: overlapping children (a fanned-out batch) count once.
func TestAttributeUsesUnionOfChildren(t *testing.T) {
	rec := newRecorder(layerOf{})
	rpc := rec.intern("rpc.chord.lookupStepReq")
	get := rec.intern("dht.Get")
	a := rec.agg
	a.attribute(opLookup, []span{
		{start: 10, end: 60, lvl: levelDHT, name: get, width: 1},
		{start: 20, end: 30, lvl: levelRPC, name: rpc, width: 1},
		{start: 25, end: 45, lvl: levelRPC, name: rpc, width: 1},
		{start: 50, end: 55, lvl: levelFn, name: get},
		{start: 0, end: 100, lvl: levelOp, name: uint16(opLookup), width: 1},
	}, rec.names)
	want := [numLevels]int64{levelOp: 50, levelDHT: 20, levelRPC: 25, levelFn: 5}
	if got := a.selfNS[opLookup]; got != want {
		t.Errorf("self times %v, want %v", got, want)
	}
	if a.hopSamples != 1 || a.hops[2] != 1 {
		t.Errorf("hops histogram %v (%d samples), want one call with 2 hops", a.hops[:4], a.hopSamples)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
