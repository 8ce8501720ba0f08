package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"mlight/internal/core"
	"mlight/internal/metrics"
	"mlight/internal/spatial"
	"mlight/internal/wire"
)

// windows is the number of equal stretches of a script whose time a pass
// adds up separately, for ops_s. A round's script takes one to two seconds,
// so a window is 10 to 25 ms: long enough to keep its share of garbage
// collections, splits and journal compactions, which a per-operation minimum
// would shed, short enough that interference from outside the process does
// not cover the same window in every round. On raw timings of tcp-cluster the
// spread of ops_s between runs was 5 % with one window, 4 % with 20 and 1 %
// with 100 or more.
const windows = 100

// clientResult is what the closed-loop client measured over one script.
type clientResult struct {
	lat          [numOpKinds][]float64  // per-op latency in script order, µs
	window       [windows]time.Duration // Σ op latency per stretch of the script
	busy         time.Duration          // Σ op latency: the measured wall time
	failed       int
	firstErr     error
	rangeLookups int64
	rangeRounds  int64
}

// runScript replays sc against ix, one operation at a time: the next call
// is issued only after the previous one returned and was checked. Oracle
// checks run between the timed windows. rec, when non-nil, receives the
// operation boundaries of the traced run.
func runScript(ix *core.Index, p *plan, sc *script, rec *recorder, out *clientResult) {
	var counts [numOpKinds]int
	for _, o := range sc.ops {
		counts[o.kind]++
	}
	for k, n := range counts {
		out.lat[k] = make([]float64, 0, n)
	}
	epoch := time.Now()
	if rec != nil {
		epoch = rec.epoch
	}
	for i, o := range sc.ops {
		var (
			err     error
			bucket  core.Bucket
			removed bool
			res     *core.QueryResult
		)
		if rec != nil {
			rec.beginOp()
		}
		start := time.Since(epoch)
		switch o.kind {
		case opInsert:
			err = ix.Insert(p.recs[o.arg])
		case opDelete:
			removed, err = ix.Delete(p.recs[o.arg].Key, p.recs[o.arg].Data)
		case opLookup:
			bucket, err = ix.Lookup(p.recs[o.arg].Key)
		case opRange:
			res, err = ix.RangeQuery(p.rects[o.arg])
		}
		end := time.Since(epoch)
		if rec != nil {
			rec.endOp(o.kind, int64(start), int64(end))
		}
		out.busy += end - start
		out.window[i*windows/len(sc.ops)] += end - start
		out.lat[o.kind] = append(out.lat[o.kind], float64(end-start)/1e3)

		if err == nil {
			switch o.kind {
			case opDelete:
				if !removed {
					err = fmt.Errorf("delete %s: record not found", p.recs[o.arg].Data)
				}
			case opLookup:
				err = p.checkLookup(bucket, p.recs[o.arg])
			case opRange:
				out.rangeLookups += int64(res.Lookups)
				out.rangeRounds += int64(res.Rounds)
				err = p.checkRange(p.rects[o.arg], res.Records)
			}
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("%s: %w", o.kind, err)
			}
		}
	}
}

// pass is one measured execution of a plan: set-up, script, verification.
type pass struct {
	clientResult
	setup   float64 // seconds
	stats   metrics.Snapshot
	resil   metrics.ResilienceSnapshot
	mem     processDelta
	heapMiB float64
	disk    int64 // bytes under the journal dirs at script end
	user    int64 // wire-encoded bytes of the records the index holds
	err     error // first oracle or operation failure, nil when all passed
}

func (c *clientResult) ops() (n int) {
	for _, l := range c.lat {
		n += len(l)
	}
	return n
}

// latencies returns the sorted latencies of one op kind.
func (c *clientResult) latencies(k opKind) []float64 {
	out := slices.Clone(c.lat[k])
	slices.Sort(out)
	return out
}

// setUp builds the stack, bulk-loads the preload and runs the warm-up.
func setUp(s *spec, pl *plan, seed int64, rec *recorder) (*stack, error) {
	st, err := s.build(seed, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", s.name, err)
	}
	if err := st.ix.BulkLoad(pl.recs[:pl.preload]); err != nil {
		return nil, errors.Join(fmt.Errorf("%s: bulk load: %w", s.name, err), st.close())
	}
	var warm clientResult
	runScript(st.ix, pl, &pl.warmup, nil, &warm)
	if warm.firstErr != nil {
		return nil, errors.Join(fmt.Errorf("%s: warm-up: %w", s.name, warm.firstErr), st.close())
	}
	return st, nil
}

// runPass is one round: set-up, the script, the verification of the final
// state, teardown. With rec non-nil the stack is built with seams.
func runPass(s *spec, pl *plan, seed int64, rec *recorder) (res *pass, err error) {
	res = &pass{}
	t0 := time.Now()
	st, err := setUp(s, pl, seed, rec)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0).Seconds()
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: teardown: %w", s.name, cerr)
		}
	}()

	runtime.GC()
	before := st.ix.Stats()
	var resilBefore metrics.ResilienceSnapshot
	if rs := st.ix.ResilienceStats(); rs != nil {
		resilBefore = rs.Snapshot()
	}
	memBefore := readProcess()

	runScript(st.ix, pl, &pl.script, rec, &res.clientResult)

	res.mem = readProcess().sub(memBefore)
	res.stats = st.ix.Stats().Sub(before)
	if rs := st.ix.ResilienceStats(); rs != nil {
		res.resil = rs.Snapshot().Sub(resilBefore)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	res.err = res.firstErr
	// Quiescent verification: the whole space must hold exactly the
	// preload plus what the script left behind.
	everything, verr := st.ix.RangeQuery(spatial.Rect{Lo: spatial.Point{0, 0}, Hi: spatial.Point{1, 1}})
	if verr != nil {
		return nil, fmt.Errorf("%s: final scan: %w", s.name, verr)
	}
	var got digest
	var enc []byte
	for _, r := range everything.Records {
		got.add(r)
		enc = wire.AppendRecord(enc[:0], r)
		res.user += int64(len(enc))
	}
	if got != pl.final && res.err == nil {
		res.err = fmt.Errorf("final state: %d records (sum %x), want %d (sum %x)", got.n, got.sum, pl.final.n, pl.final.sum)
	}
	if res.disk, err = st.diskBytes(); err != nil {
		return nil, err
	}
	return res, nil
}

// processDelta is the process-wide resource use of a measured phase.
type processDelta struct {
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	cpu        time.Duration // user + system
}

func readProcess() processDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return processDelta{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, cpu}
}

func (p processDelta) sub(o processDelta) processDelta {
	return processDelta{p.mallocs - o.mallocs, p.allocBytes - o.allocBytes, p.gcPauseNS - o.gcPauseNS, p.cpu - o.cpu}
}

// peakRSSMiB reads the process's resident-set high-water mark; zero where
// /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// quantile is metrics.Quantile with 0, not NaN, for no samples: the result
// line is JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEndMetrics derives the gating metrics of one pass.
func (p *pass) endToEndMetrics(out metricSet) {
	ops := float64(p.ops())
	out.set("setup_s", "s", p.setup)
	out.set("ops_s", "ops/s", ratio(ops, p.busy.Seconds()))
	var counts [numOpKinds]float64
	for k := opInsert; k < numOpKinds; k++ {
		lat := p.latencies(k)
		counts[k] = float64(len(lat))
		out.set(k.String()+"_p50_us", "us", quantile(lat, 0.5))
	}
	out.set("dht_lookups_per_op", "count", ratio(float64(p.stats.DHTLookups), ops))
	out.set("range_lookups_per_query", "count", ratio(float64(p.rangeLookups), counts[opRange]))
	out.set("range_rounds_per_query", "count", ratio(float64(p.rangeRounds), counts[opRange]))
	out.set("records_moved_per_insert", "count", ratio(float64(p.stats.RecordsMoved), counts[opInsert]))
	out.set("heap_mib", "MiB", p.heapMiB)
}

// bestOfRounds derives the five timings of an untraced run from all its
// rounds. The rounds replay one script on identically built stacks, so each
// operation, and each window of the script, was timed once per round doing
// the same work. Whatever else the machine runs only ever adds to a
// measurement, so the smallest of those timings is the closest to the work's
// own cost. A latency is the median, over the operations of its kind, of each
// operation's fastest round; ops_s divides the script's operations by the sum,
// over its windows, of each window's fastest round.
func bestOfRounds(passes []*pass, out metricSet) {
	var busy time.Duration
	for w := 0; w < windows; w++ {
		best := passes[0].window[w]
		for _, p := range passes[1:] {
			best = min(best, p.window[w])
		}
		busy += best
	}
	out.set("ops_s", "ops/s", ratio(float64(passes[0].ops()), busy.Seconds()))
	for k := opInsert; k < numOpKinds; k++ {
		best := slices.Clone(passes[0].lat[k])
		for _, p := range passes[1:] {
			for i, v := range p.lat[k] {
				best[i] = min(best[i], v)
			}
		}
		slices.Sort(best)
		out.set(k.String()+"_p50_us", "us", quantile(best, 0.5))
	}
}

// clientLayerMetrics derives the per-layer metrics that come from an
// untraced pass: the index's own counters, the retry layer, the process,
// the journal's footprint and the latency tails.
func (p *pass) clientLayerMetrics(out metricSet) {
	ops := float64(p.ops())
	inserts := float64(len(p.latencies(opInsert)))
	deletes := float64(len(p.latencies(opDelete)))
	st := p.stats
	out.set("core.batch_width_mean", "count", ratio(float64(st.BatchProbes), float64(st.BatchRounds)))
	out.set("core.cache_hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses+st.CacheStale)))
	out.set("core.cache_stale_per_kop", "count", ratio(float64(st.CacheStale)*1e3, ops))
	out.set("core.splits_per_kinsert", "count", ratio(float64(st.Splits)*1e3, inserts))
	out.set("core.merges_per_kdelete", "count", ratio(float64(st.Merges)*1e3, deletes))
	out.set("dht.retries_per_kop", "count", ratio(float64(p.resil.Retries)*1e3, ops))
	out.set("dht.breaker_trips", "count", float64(p.resil.BreakerTrips))
	out.set("wal.disk_bytes_per_user_byte", "ratio", ratio(float64(p.disk), float64(p.user)))

	out.set("process.allocs_per_op", "count", ratio(float64(p.mem.mallocs), ops))
	out.set("process.alloc_bytes_per_op", "B", ratio(float64(p.mem.allocBytes), ops))
	out.set("process.gc_pause_total_ms", "ms", float64(p.mem.gcPauseNS)/1e6)
	out.set("process.cpu_s_per_kop", "s", ratio(p.mem.cpu.Seconds()*1e3, ops))
	out.set("process.peak_rss_mib", "MiB", peakRSSMiB())

	for _, k := range []opKind{opInsert, opLookup, opRange} {
		lat := p.latencies(k)
		out.set("client."+k.String()+"_p95_us", "us", quantile(lat, 0.95))
		out.set("client."+k.String()+"_p99_us", "us", quantile(lat, 0.99))
		out.set("client."+k.String()+"_samples", "count", float64(len(lat)))
		if k == opInsert && len(lat) > 0 {
			out.set("client.insert_max_ms", "ms", lat[len(lat)-1]/1e3)
		}
	}
}
