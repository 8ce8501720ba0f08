// Command mlight-perf is the repository's benchmark: four workloads that
// stress different layers of the stack, one set of end-to-end metrics
// measured with tracing off, and a traced run of the same scripts that
// attributes every operation's wall time to the layer that spent it.
// README.md in this directory documents workloads, metrics and method;
// BENCHMARK.json at the repository root is the contract later changes are
// gated on.
//
//	mlight-perf -workload engine-local -seed 1 -seconds 15 -trace 0
//	mlight-perf -workload tcp-cluster -seed 1 -seconds 15 -trace 1 -trace-out t.json
//	mlight-perf -workload all -repeat 10      # medians and quartiles
//	mlight-perf -workload all -selfcheck      # two sets must agree within the bounds
//	mlight-perf -probes                       # floor probes only
//
// The last line of standard output of a single run is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// procs is the GOMAXPROCS the command runs with. The sandbox is a few cores
// of a shared host. With the default, the collector's workers and the range
// engine's probe goroutines spread over a second core whose speed depends on
// the neighbours, and runs of one binary differed by 20-30 %; on one P,
// run alternately with those, by 3-11 %. Every workload has one closed-loop
// client, so one P loses no offered parallelism, only the overlap of a probe
// round's CPU work, and on tcp-cluster the daemons' handlers share the
// client's P. Socket and file waits still overlap: they park goroutines, not
// the P.
const procs = 1

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	repeat   int
	self     bool
	probes   bool
	// scale shrinks preload and script for the package's tests; zero is
	// full size. It is not a flag: the frozen sizes are the benchmark.
	scale float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured phase the script is sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the seam-traced pass and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the first spans as Chrome trace_event JSON to this file")
	flag.IntVar(&o.repeat, "repeat", 0, "run N times on seeds seed..seed+N-1 and print each end-to-end metric's median and quartiles")
	flag.BoolVar(&o.self, "selfcheck", false, "run two sets of -repeat runs (default 5) and fail if a metric's medians differ by more than its bound")
	flag.BoolVar(&o.probes, "probes", false, "run only the floor probes")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlight-perf:", err)
		os.Exit(1)
	}
}

// commit names the tree the binary was built from. run.sh sets it when it
// builds (-ldflags -X), so it describes the code that is measured and not
// whatever HEAD is when the binary runs.
var commit = "unknown"

func run(o options, w io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.probes {
		out, err := probes()
		if err != nil {
			return err
		}
		printMetrics(w, out)
		return nil
	}
	selected := specs
	if o.workload != "all" {
		s := specByName(o.workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*spec{s}
	}
	for _, s := range selected {
		var err error
		switch {
		case o.self:
			err = selfCheck(w, s, o)
		case o.repeat > 0:
			_, err = repeat(w, s, o, o.seed, o.repeat)
		default:
			err = single(w, s, o)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// envRecord is the header of every output: where and on what the numbers
// were measured.
type envRecord struct {
	Record     string         `json:"record"`
	Workload   string         `json:"workload"`
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Preload    int            `json:"preload"`
	Ops        map[string]int `json:"ops"`
	// Network says what the workload's traffic crossed: "loopback" for
	// tcp-cluster (real sockets, one host), "none" in process.
	Network string `json:"network"`
}

func newEnv(s *spec, o options, seed int64, traced bool, pl *plan) envRecord {
	counts := map[string]int{}
	for _, op := range pl.script.ops {
		counts[op.kind.String()]++
	}
	network := "none"
	if s.layers[levelRPC] == "transport" {
		network = "loopback"
	}
	return envRecord{
		Record: "env", Workload: s.name, Commit: commit,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: o.seconds, Traced: traced,
		Preload: pl.preload, Ops: counts, Network: network,
	}
}

// result is the contract's last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func printJSON(w io.Writer, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of floats reach here
	}
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// single is one run in the contract's format.
func single(w io.Writer, s *spec, o options) error {
	var (
		env envRecord
		res result
		err error
	)
	if o.trace != 0 {
		env, res, err = tracedRun(w, s, o)
	} else {
		env, res, err = untracedRun(s, o, o.seed)
	}
	if err != nil {
		return err
	}
	printJSON(w, env)
	printMetrics(w, res.Metrics)
	fmt.Fprintf(w, "%-36s %16.6g %s\n", "fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	printJSON(w, res)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check was violated", s.name, res.Failed, res.Attempted)
	}
	return nil
}

// sized returns the spec at the run's scale and the length of the script
// one round replays: -seconds is divided over the rounds.
func sized(s *spec, o options) (*spec, int) {
	scale := o.scale
	if scale == 0 {
		scale = 1
	}
	c := *s
	c.preload = max(int(float64(s.preload)*scale), 1000)
	return &c, max(int(float64(s.opsPerSecond*o.seconds)*scale)/s.rounds, 200)
}

// untracedRun measures the end-to-end metrics: no seams.
func untracedRun(s *spec, o options, seed int64) (envRecord, result, error) {
	s, ops := sized(s, o)
	pl, err := newPlan(s, ops, seed)
	if err != nil {
		return envRecord{}, result{}, err
	}
	res := result{Correct: true}
	var perRound []metricSet
	var passes []*pass
	for r := 0; r < s.rounds; r++ {
		p, err := runPass(s, pl, seed, nil)
		if err != nil {
			return envRecord{}, result{}, err
		}
		if p.err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "mlight-perf: %s: round %d: first failure: %v\n", s.name, r+1, p.err)
		}
		res.Attempted += p.ops()
		res.Failed += p.failed
		m := metricSet{}
		p.endToEndMetrics(m)
		perRound = append(perRound, m)
		passes = append(passes, p)
	}
	res.Metrics = medianOver(perRound)
	bestOfRounds(passes, res.Metrics)
	return newEnv(s, o, seed, false, pl), res, nil
}

// medianOver takes each metric's median over the rounds.
func medianOver(sets []metricSet) metricSet {
	out := metricSet{}
	for name, m := range sets[0] {
		values := make([]float64, len(sets))
		for i, set := range sets {
			values[i] = set[name].Value
		}
		out.set(name, m.Unit, median(values))
	}
	return out
}

// tracedRun produces the per-layer metrics: an untraced reference pass and
// a traced pass replay the same script on fresh stacks; the
// probes follow. The run is correct only if tracing changed timing and
// nothing else — the paper-cost counts of both passes are equal — and the
// layers' self times add up to the operations' time.
func tracedRun(w io.Writer, s *spec, o options) (envRecord, result, error) {
	s, ops := sized(s, o)
	pl, err := newPlan(s, ops, o.seed)
	if err != nil {
		return envRecord{}, result{}, err
	}
	ref, err := runPass(s, pl, o.seed, nil)
	if err != nil {
		return envRecord{}, result{}, err
	}
	rec := newRecorder(s.layers)
	tr, err := runPass(s, pl, o.seed, rec)
	if err != nil {
		return envRecord{}, result{}, err
	}

	out := newPerLayerSet()
	ref.clientLayerMetrics(out)
	rec.agg.layerMetrics(s.layers, out)
	out.set("trace.overhead_frac", "ratio", ratio(tr.busy.Seconds(), ref.busy.Seconds())-1)
	out.set("trace.spans", "count", float64(rec.total))
	probed, err := probes()
	if err != nil {
		return envRecord{}, result{}, err
	}
	for name, m := range probed {
		out[name] = m
	}

	res := result{Correct: ref.err == nil && tr.err == nil, Attempted: ref.ops() + tr.ops(), Failed: ref.failed + tr.failed, Metrics: out}
	for _, p := range []*pass{ref, tr} {
		if p.err != nil {
			fmt.Fprintf(os.Stderr, "mlight-perf: %s: first failure: %v\n", s.name, p.err)
		}
	}
	refCosts, trCosts := metricSet{}, metricSet{}
	ref.endToEndMetrics(refCosts)
	tr.endToEndMetrics(trCosts)
	for _, c := range paperCosts {
		a, b := refCosts[c.name].Value, trCosts[c.name].Value
		if math.Abs(a-b) > c.tol*a {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "mlight-perf: %s: tracing changed %s: %v untraced, %v traced\n", s.name, c.name, a, b)
		}
	}
	if sum := out["trace.self_sum_frac"].Value; sum < 0.99 || sum > 1.01 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "mlight-perf: %s: layer self times are %.4f of the op time\n", s.name, sum)
	}
	rec.agg.printRPCs(w, rec.names)
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, rec); err != nil {
			return envRecord{}, result{}, err
		}
	}
	return newEnv(s, o, o.seed, true, pl), res, nil
}
