package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// rpcClass groups the request types one overlay operation is made of.
type rpcClass uint8

const (
	rpcOther     rpcClass = iota
	rpcRoute              // one routing step (chord.lookupStepReq)
	rpcPing               // liveness check of the resolved owner
	rpcCAS                // dht.GetVerReq / dht.CASReq: the wire-safe apply
	rpcReplicate          // replica push or drop
	numRPCClasses
)

func classifyRPC(name string) rpcClass {
	switch {
	case strings.HasSuffix(name, "lookupStepReq"):
		return rpcRoute
	case strings.HasSuffix(name, "pingReq"):
		return rpcPing
	case strings.HasSuffix(name, "GetVerReq"), strings.HasSuffix(name, "CASReq"):
		return rpcCAS
	case strings.HasSuffix(name, "replicateReq"), strings.HasSuffix(name, "dropReplicaReq"):
		return rpcReplicate
	}
	return rpcOther
}

// hist is a log-scale histogram of nanosecond durations: 16 sub-buckets per
// octave, so a quantile read from it is within ~4 % of the sample.
type hist struct {
	counts [64 * 16]int64
	n      int64
}

func (h *hist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(float64(ns)) * 16)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (bucket midpoint).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := int64(q * float64(h.n-1))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen > want {
			return math.Exp2((float64(b) + 0.5) / 16)
		}
	}
	return 0
}

// aggregate is what the traced run keeps of every operation after its
// spans are dropped.
type aggregate struct {
	ops    [numOpKinds]int64
	opNS   [numOpKinds]int64
	selfNS [numOpKinds][numLevels]int64

	dhtCalls [numOpKinds]int64 // logical calls through the dht seam
	dhtNS    int64             // time inside dht-seam calls (width > 0)
	dhtWidth int64

	methodNS    [numDHTMethods]int64 // dht seam only
	methodCalls [numDHTMethods]int64
	fnNS        int64 // core closures (levelFn)

	rpcs     [numOpKinds]int64
	rpcBytes [numOpKinds]int64
	rpcClass [numOpKinds][numRPCClasses]int64
	rpcNames [numOpKinds][]int64 // by name id
	rpcDur   hist

	hops       [64]int64 // routing steps per overlay-facing call
	hopSamples int64

	// facing is the seam whose single-key calls enter the overlay: the
	// substrate seam when the stack has one, else the dht seam.
	facingLvl level

	class  []rpcClass  // by name id
	method []dhtMethod // by name id; -1 when the name is not a dht method
	events []event
	facing []span
}

type event struct {
	t     int64
	lvl   level
	delta int8
}

func (a *aggregate) classify(names []string) {
	for id := len(a.class); id < len(names); id++ {
		a.class = append(a.class, classifyRPC(names[id]))
		m := dhtMethod(-1)
		if rest, ok := strings.CutPrefix(names[id], levelNames[levelDHT]+"."); ok {
			for i, n := range dhtMethodNames {
				if n == rest {
					m = dhtMethod(i)
				}
			}
		}
		a.method = append(a.method, m)
	}
}

// attribute bills one operation's wall time to the seams. The last span is
// the op span itself. Every instant of the op goes to the deepest level
// active at that instant — the union rule: batches fan out, so sibling
// spans overlap, and time covered by any child is the child's.
func (a *aggregate) attribute(kind opKind, spans []span, names []string) {
	a.classify(names)
	op := spans[len(spans)-1]
	a.ops[kind]++
	a.opNS[kind] += op.end - op.start

	a.events = a.events[:0]
	for _, s := range spans {
		if s.start < op.start {
			s.start = op.start
		}
		if s.end > op.end {
			s.end = op.end
		}
		if s.end <= s.start && s.lvl != levelOp {
			continue
		}
		a.events = append(a.events, event{s.start, s.lvl, +1}, event{s.end, s.lvl, -1})
	}
	sort.Slice(a.events, func(i, j int) bool { return a.events[i].t < a.events[j].t })
	var active [numLevels]int
	prev := op.start
	for _, e := range a.events {
		if dt := e.t - prev; dt > 0 {
			for l := numLevels - 1; ; l-- {
				if active[l] > 0 || l == levelOp {
					a.selfNS[kind][l] += dt
					break
				}
			}
			prev = e.t
		}
		active[e.lvl] += int(e.delta)
	}

	a.facing = a.facing[:0]
	for _, s := range spans[:len(spans)-1] {
		dur := s.end - s.start
		switch s.lvl {
		case levelDHT:
			a.dhtCalls[kind] += int64(s.width)
			if s.width > 0 {
				a.dhtNS += dur
				a.dhtWidth += int64(s.width)
			}
			if m := a.method[s.name]; m >= 0 {
				a.methodNS[m] += dur
				a.methodCalls[m] += int64(s.width)
			}
		case levelFn:
			a.fnNS += dur
		case levelRPC:
			a.rpcs[kind]++
			a.rpcBytes[kind] += int64(s.bytes)
			a.rpcClass[kind][a.class[s.name]]++
			for len(a.rpcNames[kind]) <= int(s.name) {
				a.rpcNames[kind] = append(a.rpcNames[kind], 0)
			}
			a.rpcNames[kind][s.name]++
			a.rpcDur.add(dur)
		}
		if s.lvl == a.facingLvl && s.width == 1 {
			a.facing = append(a.facing, s)
		}
	}
	a.sampleHops(spans)
}

// sampleHops counts routing steps per overlay-facing call, for the calls
// that overlap no other such call (a binary-search Get, an Apply): only
// there does containment say which call an rpc span belongs to.
func (a *aggregate) sampleHops(spans []span) {
	f := a.facing
	if len(f) == 0 {
		return
	}
	sort.Slice(f, func(i, j int) bool { return f[i].start < f[j].start })
	var maxEnd int64 = math.MinInt64
	for i, s := range f {
		alone := s.start >= maxEnd && (i+1 == len(f) || f[i+1].start >= s.end)
		if s.end > maxEnd {
			maxEnd = s.end
		}
		if !alone {
			continue
		}
		hops := 0
		for _, r := range spans {
			if r.lvl == levelRPC && a.class[r.name] == rpcRoute && r.start >= s.start && r.end <= s.end {
				hops++
			}
		}
		if hops >= len(a.hops) {
			hops = len(a.hops) - 1
		}
		a.hops[hops]++
		a.hopSamples++
	}
}

func (a *aggregate) hopsQuantile(q float64) float64 {
	if a.hopSamples == 0 {
		return 0
	}
	want := int64(q * float64(a.hopSamples-1))
	var seen int64
	for h, c := range a.hops {
		seen += c
		if seen > want {
			return float64(h)
		}
	}
	return 0
}

func (a *aggregate) hopsMean() float64 {
	if a.hopSamples == 0 {
		return 0
	}
	var sum int64
	for h, c := range a.hops {
		sum += int64(h) * c
	}
	return float64(sum) / float64(a.hopSamples)
}

func sum4(v [numOpKinds]int64) int64 { return v[0] + v[1] + v[2] + v[3] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerOf names the module that owns the time billed to each level on a
// stack. An empty name means the level does not occur.
type layerOf [numLevels]string

// layerMetrics turns the aggregate into the trace-sourced per-layer
// metrics. Metrics of a layer the stack does not have stay at zero.
func (a *aggregate) layerMetrics(layers layerOf, out metricSet) {
	total := float64(sum4(a.opNS))
	selfOf := func(layer string, kinds ...opKind) float64 {
		var ns int64
		for _, k := range kinds {
			for l, name := range layers {
				if name == layer {
					ns += a.selfNS[k][l]
				}
			}
		}
		return float64(ns)
	}
	all := []opKind{opInsert, opDelete, opLookup, opRange}
	var billed float64
	for _, layer := range []string{"core", "dht", "wire", "chord", "simnet", "transport"} {
		self := selfOf(layer, all...)
		billed += self
		out.set(layer+".self_share", "ratio", ratio(self, total))
	}
	out.set("trace.self_sum_frac", "ratio", ratio(billed, total))

	for _, k := range []opKind{opInsert, opLookup, opRange} {
		n := float64(a.ops[k])
		x := k.String()
		for _, layer := range []string{"core", "wire", "chord"} {
			out.set(layer+".self_us_per_"+x, "us", ratio(selfOf(layer, k)/1e3, n))
		}
		out.set("core.dht_calls_per_"+x, "count", ratio(float64(a.dhtCalls[k]), n))
		if layers[levelRPC] == "transport" {
			out.set("transport.rpcs_per_"+x, "count", ratio(float64(a.rpcs[k]), n))
			out.set("transport.bytes_per_"+x, "B", ratio(float64(a.rpcBytes[k]), n))
		}
	}
	inserts := float64(a.ops[opInsert])
	out.set("core.apply_fn_us_per_insert", "us", ratio(float64(a.selfNS[opInsert][levelFn])/1e3, inserts))
	out.set("core.dht_call_us", "us", ratio(float64(a.dhtNS)/1e3, float64(a.dhtWidth)))

	if layers[levelDHT] == "dht" {
		gets := a.methodCalls[mGet] + a.methodCalls[mGetBatch]
		out.set("dht.store_us_per_get", "us", ratio(float64(a.methodNS[mGet]+a.methodNS[mGetBatch])/1e3, float64(gets)))
		applies := a.methodCalls[mApply] + a.methodCalls[mApplyBatch]
		out.set("dht.store_us_per_apply", "us", ratio(float64(a.methodNS[mApply]+a.methodNS[mApplyBatch]-a.fnNS)/1e3, float64(applies)))
		out.set("dht.store_us_per_putbatch", "us", ratio(float64(a.methodNS[mPutBatch])/1e3, float64(a.methodCalls[mPutBatch])))
	}

	ops := float64(sum4(a.ops))
	var class [numRPCClasses]int64
	for _, k := range all {
		for c, n := range a.rpcClass[k] {
			class[c] += n
		}
	}
	switch layers[levelRPC] {
	case "transport":
		out.set("transport.route_rpcs_per_op", "count", ratio(float64(class[rpcRoute]), ops))
		out.set("transport.ping_rpcs_per_op", "count", ratio(float64(class[rpcPing]), ops))
		out.set("transport.cas_rpcs_per_insert", "count", ratio(float64(a.rpcClass[opInsert][rpcCAS]), inserts))
		out.set("transport.replicate_rpcs_per_insert", "count", ratio(float64(a.rpcClass[opInsert][rpcReplicate]), inserts))
		out.set("transport.rpc_p50_us", "us", a.rpcDur.quantile(0.50)/1e3)
		out.set("transport.rpc_p95_us", "us", a.rpcDur.quantile(0.95)/1e3)
	case "simnet":
		out.set("simnet.calls_per_op", "count", ratio(float64(sum4(a.rpcs)), ops))
	}
	if layers[levelRPC] != "" {
		out.set("chord.hops_mean", "count", a.hopsMean())
		out.set("chord.hops_p95", "count", a.hopsQuantile(0.95))
	}
}

// printRPCs prints how many RPCs of each request type one operation of
// each kind cost — the decomposition of an op into round trips.
func (a *aggregate) printRPCs(w io.Writer, names []string) {
	for k := opInsert; k < numOpKinds; k++ {
		for id, n := range a.rpcNames[k] {
			if n > 0 {
				fmt.Fprintf(w, "# %-6s %-28s %8.3f per op\n", k, names[id], ratio(float64(n), float64(a.ops[k])))
			}
		}
	}
}

// writeChromeTrace writes the kept spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto): one complete event per span, one row per
// seam level.
func writeChromeTrace(path string, r *recorder) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range r.kept {
		name := ""
		if s.lvl == levelOp {
			name = opKind(s.name).String()
		} else {
			name = r.names[s.name]
		}
		if s.lvl == levelFn || s.lvl == levelFnSub {
			name = "fn:" + name
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"width":%d,"bytes":%d}}`,
			name, levelNames[s.lvl], s.lvl, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.width, s.bytes)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
