package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/spatial"
)

// testScale shrinks every workload about 200-fold.
const testScale = 1.0 / 200

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables in the code must say the same thing.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/mlight-perf" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, spec is %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end-to-end metric %d: file %+v, code %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: file %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		seen[m.Name] = true
	}
	for _, m := range b.PerLayer {
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", name)
		}
	}
}

// lastLine parses the contract's result line and checks that every other
// metric line names a metric exactly once.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	printed := map[string]int{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(l, "#") && !strings.HasPrefix(l, "{") {
			printed[f[0]]++
		}
	}
	for name, m := range res.Metrics {
		if printed[name] != 1 {
			t.Errorf("metric %s printed %d times, want once", name, printed[name])
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
	}
	return res
}

// Every workload, at 1/200 scale: the untraced run prints exactly the
// end-to-end metrics, the traced run exactly the per-layer metrics, both
// pass the oracle, the traced run reproduces the untraced paper-cost counts
// and its own bookkeeping, and teardown leaves no goroutine behind.
func TestWorkloadsAtSmallScale(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	b := readBenchmarkFile(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			o := options{workload: s.name, seed: 7, seconds: 10, scale: testScale}

			var buf bytes.Buffer
			if err := run(o, &buf); err != nil {
				t.Fatalf("untraced: %v\n%s", err, buf.String())
			}
			res := lastLine(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 200 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if !strings.Contains(buf.String(), `"commit":"unknown"`) || !strings.Contains(buf.String(), `"gomaxprocs"`) {
				t.Errorf("output lacks the environment record:\n%s", buf.String())
			}
			if s.name == "tcp-cluster" && !strings.Contains(buf.String(), `"network":"loopback"`) {
				t.Error("tcp-cluster output does not say its traffic crossed loopback")
			}

			buf.Reset()
			o.trace = 1
			o.traceOut = t.TempDir() + "/trace.json"
			if err := run(o, &buf); err != nil {
				t.Fatalf("traced: %v\n%s", err, buf.String())
			}
			res = lastLine(t, buf.String())
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, layer := range s.layers {
				if layer != "" && res.Metrics[layer+".self_share"].Value <= 0 {
					t.Errorf("layer %s owns no time on %s", layer, s.name)
				}
			}
			for _, probe := range []string{"transport.echo_p50_us", "wal.append_us", "wire.marshal_bucket_ns", "simnet.call_ns", "dht.sharded_apply_ns", "pastry.get_us", "kademlia.hops_mean"} {
				if res.Metrics[probe].Value <= 0 {
					t.Errorf("probe %s reported %v", probe, res.Metrics[probe].Value)
				}
			}
			trace, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(trace, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %v, %d events", err, len(doc.TraceEvents))
			}
		})
	}
}

// With one client the paper's cost counts are a function of the seed.
func TestPaperCostsRepeat(t *testing.T) {
	o := options{seed: 3, seconds: 10, scale: testScale}
	s := specByName("engine-local")
	_, a, err := untracedRun(s, o, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := untracedRun(s, o, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range paperCosts {
		if c.tol == 0 && a.Metrics[c.name] != b.Metrics[c.name] {
			t.Errorf("%s: %v then %v on the same seed", c.name, a.Metrics[c.name].Value, b.Metrics[c.name].Value)
		}
	}
}

// A wrong answer must be counted and must fail the run.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	s, ops := sized(specByName("engine-local"), options{seconds: 10, scale: testScale})
	pl, err := newPlan(s, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := pl.rects[0]
	if err := pl.checkRange(q, nil); pl.grid.expect(q).n > 0 && err == nil {
		t.Error("an empty answer to a non-empty rectangle passed")
	}
	outside := pl.recs[0]
	outside.Key = []float64{q.Hi[0] + 0.1, q.Hi[1]}
	if err := pl.checkRange(q, []spatial.Record{outside}); err == nil {
		t.Error("a record outside the rectangle passed")
	}
	pl.final.n++
	p, err := runPass(s, pl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.err == nil {
		t.Error("a final state that differs from the expected multiset passed")
	}
}

// The timings of a run take each operation's, and each window's, fastest
// round.
func TestBestOfRounds(t *testing.T) {
	round := func(lookups []float64, window time.Duration) *pass {
		p := &pass{}
		p.lat[opLookup] = lookups
		for w := range p.window {
			p.window[w] = window
		}
		return p
	}
	slow, fast := round([]float64{9, 2, 7}, 3*time.Millisecond), round([]float64{1, 8, 3}, 2*time.Millisecond)
	slow.window[0] = time.Millisecond
	out := metricSet{}
	bestOfRounds([]*pass{slow, fast}, out)
	if got := out["lookup_p50_us"].Value; got != 2 {
		t.Errorf("lookup_p50_us = %v, want 2, the median of the per-operation minima 1, 2, 3", got)
	}
	want := 3 / (time.Millisecond + (windows-1)*2*time.Millisecond).Seconds()
	if got := out["ops_s"].Value; math.Abs(got-want) > 1e-9*want {
		t.Errorf("ops_s = %v, want %v: three operations over the sum of each window's fastest round", got, want)
	}
}

// tcp-cluster's daemons sit a quarter of the ring apart, on ports no
// outgoing connection is given.
func TestDaemonAddrsSplitTheRingEvenly(t *testing.T) {
	for i, addrs := range daemonAddrs() {
		if len(addrs) == 0 {
			t.Fatalf("daemon %d has no address", i)
		}
		_, port, err := net.SplitHostPort(addrs[0])
		if p, perr := strconv.Atoi(port); err != nil || perr != nil || p >= 32768 {
			t.Errorf("daemon %d: address %s is in the ephemeral port range", i, addrs[0])
		}
		id := dht.HashString(addrs[0])
		place := binary.BigEndian.Uint64(id[:8])
		if off := place - uint64(i)<<62; min(off, -off) > 1<<54 { // 1/1024 of the ring
			t.Errorf("daemon %d at %s sits %x from its quarter point", i, addrs[0], min(off, -off))
		}
	}
}
