package main

// spec is one workload: what runs under core, how much data, which
// operation mix. Sizes are frozen; BENCHMARK.json repeats them, with the
// reason each workload exists, in its "why".
type spec struct {
	name string
	// preload is the record count BulkLoad places before the script.
	preload int
	// rounds is how often an untraced run replays its script, each time on
	// a freshly set-up stack. The five timings take, for each operation and
	// each window of the script, the fastest of its rounds (bestOfRounds):
	// ten rounds brought the spread between runs of tcp-cluster on a noisy
	// machine from 20 % (one round) over 5-10 % (five) to 1-2 %. Set-up time,
	// heap and the paper's counts are medians over the rounds. A workload
	// whose set-up is dear replays fewer, longer rounds. A traced run replays
	// one round's script twice: the untraced reference pass and the traced
	// pass.
	rounds int
	// opsPerSecond × the -seconds argument is the fixed number of
	// operations a run executes, over all its rounds. It was tuned once, at
	// the commit that introduced the benchmark, so that a whole run — set-ups
	// and verification included — fits the driver's time limit with a margin;
	// it is not adjusted when the code gets faster or slower — both sides of
	// a comparison run the same operations.
	opsPerSecond int
	span         float64
	mix          mix
	// zipf > 1 draws lookup targets Zipf(zipf) over the preload instead of
	// uniformly.
	zipf   float64
	layers layerOf
	build  func(seed int64, rec *recorder) (*stack, error)
}

var specs = []*spec{
	{
		// dht.Sharded(128): values in memory, no codec, no network. core is
		// almost all of every op.
		name:    "engine-local",
		preload: 250_000, rounds: 10, opsPerSecond: 54_000, span: 0.0006,
		mix:    mix{45, 5, 45, 5},
		layers: layerOf{levelOp: "core", levelDHT: "dht", levelFn: "core"},
		build:  buildEngineLocal,
	},
	{
		// dht.NewDurableLocal(128) over a WAL with wire.BucketCodec, the
		// library-default flush policy and compaction threshold: the same
		// engine, but every mutation is encoded and journaled.
		name:    "durable-local",
		preload: 200_000, rounds: 12, opsPerSecond: 37_000, span: 0.0015,
		mix:    mix{65, 5, 28, 2},
		layers: layerOf{levelOp: "core", levelDHT: "dht", levelFn: "core"},
		build:  buildDurableLocal,
	},
	{
		// chord.Ring of 128 peers, replication 2, zero-latency simnet
		// (inline delivery, no codec): routing dominates.
		name:    "sim-chord",
		preload: 100_000, rounds: 16, opsPerSecond: 37_000, span: 0.003,
		mix:    mix{15, 2, 73, 10},
		layers: layerOf{levelOp: "core", levelDHT: "chord", levelRPC: "simnet", levelHandler: "chord", levelFn: "core"},
		build:  buildSimChord,
	},
	{
		// 4 daemons (chord, replication 2, WAL) on loopback TCP; the client
		// is the mlight.Dial stack with retry and a 256-leaf cache. About
		// 800 leaves against 256 cache entries: the working set is larger
		// than the program's cache.
		name:    "tcp-cluster",
		preload: 50_000, rounds: 10, opsPerSecond: 3_000, span: 0.005,
		mix: mix{35, 5, 45, 15}, zipf: 1.1,
		layers: layerOf{levelOp: "core", levelDHT: "wire", levelSubstrate: "chord", levelRPC: "transport", levelFnSub: "wire", levelFn: "core"},
		build:  buildTCPCluster,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef describes one end-to-end metric; BENCHMARK.json carries the
// same table and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the gating metrics. fail_frac is the twelfth end-to-end
// figure; it is zero on a correct tree, so it is reported through the
// result line's "failed"/"attempted" counts (any failure rejects the run)
// instead of as a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "ops/s", "higher", 0.25},
	{"insert_p50_us", "us", "lower", 0.25},
	{"delete_p50_us", "us", "lower", 0.25},
	{"lookup_p50_us", "us", "lower", 0.25},
	{"range_p50_us", "us", "lower", 0.25},
	{"dht_lookups_per_op", "count", "lower", 0.05},
	{"range_lookups_per_query", "count", "lower", 0.10},
	{"range_rounds_per_query", "count", "lower", 0.05},
	{"records_moved_per_insert", "count", "lower", 0.10},
	{"heap_mib", "MiB", "lower", 0.10},
}

// paperCosts are the end-to-end metrics counted by the program itself, with
// the relative difference allowed between two runs of the same
// script — which is what a traced run and its untraced reference are. The
// three logical counts repeat exactly. dht_lookups_per_op counts physical
// probes: the range engine's covering-leaf candidates race, and a slot past
// the first hit is probed or elided depending on timing (core/range.go,
// coverGroup), so it repeats only to within a few probes in ten thousand.
var paperCosts = []struct {
	name string
	tol  float64
}{
	{"dht_lookups_per_op", 0.001},
	{"range_lookups_per_query", 0},
	{"range_rounds_per_query", 0},
	{"records_moved_per_insert", 0},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{v, unit} }
