// Package metrics provides the counters and statistical helpers used by the
// m-LIGHT evaluation: DHT-operation counts, record-movement counts, and
// per-peer load statistics (paper §7).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a concurrency-safe high-water mark: Observe records a sample and
// Load returns the largest sample seen since the last Reset. It meters
// quantities like "maximum probes in flight at once" that a monotonic
// counter cannot express.
type Gauge struct {
	v atomic.Int64
}

// Observe records n, keeping the gauge at the maximum observed value.
func (g *Gauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the high-water mark.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// IndexStats aggregates the maintenance metrics the paper reports for an
// over-DHT index (Figs. 5a–5d): every logical DHT operation issued and every
// data record transferred across the DHT.
type IndexStats struct {
	// DHTLookups counts logical DHT operations (lookup/get/put/remove/
	// apply), the unit of Fig. 5a/5c and Fig. 7a.
	DHTLookups Counter
	// RecordsMoved counts data records shipped across the DHT: initial
	// placement of inserted records, bucket halves transferred at splits,
	// buckets transferred at merges, and replica fan-out (DST). The unit of
	// Fig. 5b/5d.
	RecordsMoved Counter
	// Splits and Merges count structural index adjustments.
	Splits Counter
	Merges Counter

	// BatchRounds counts synchronous batch barriers: rounds in which a set
	// of independent DHT gets was issued concurrently. BatchProbes counts
	// the probes scheduled into those rounds; covering-leaf candidate
	// probes elided by the engine's early-exit can make the DHTLookups
	// actually charged smaller.
	BatchRounds Counter
	BatchProbes Counter
	// MaxInFlight is the high-water mark of concurrently outstanding probes
	// within a single batch round.
	MaxInFlight Gauge

	// CacheHits / CacheMisses / CacheStale meter the client-side leaf-label
	// lookup cache: a hit resolved a lookup with a single verification
	// probe; a miss found no cached candidate; a stale entry pointed at a
	// leaf that has since split or merged and was evicted.
	CacheHits   Counter
	CacheMisses Counter
	CacheStale  Counter
}

// ResilienceStats aggregates the counters of the fault-tolerance layer
// (dht.Resilient / dht.Retrier): how often operations were retried, how the
// retry budget was spent, and what the per-owner circuit breakers did. One
// instance is shared by every operation flowing through one retrier.
type ResilienceStats struct {
	// Ops counts logical operations entering the resilient layer.
	Ops Counter
	// Attempts counts substrate attempts issued (≥ Ops; the surplus is the
	// physical retry overhead the resilience experiment reports).
	Attempts Counter
	// Retries counts attempts beyond each operation's first.
	Retries Counter
	// Recovered counts operations that succeeded after at least one retry —
	// the failures the layer absorbed.
	Recovered Counter
	// Exhausted counts operations that failed every attempt in their budget.
	Exhausted Counter
	// Terminal counts operations abandoned on a non-retryable error.
	Terminal Counter
	// BreakerTrips counts closed→open breaker transitions; BreakerFastFails
	// counts operations shed while a breaker was open; BreakerResets counts
	// breakers closed again by a successful half-open trial.
	BreakerTrips     Counter
	BreakerFastFails Counter
	BreakerResets    Counter
}

// ResilienceSnapshot is a point-in-time copy of ResilienceStats.
type ResilienceSnapshot struct {
	Ops              int64 `json:"ops"`
	Attempts         int64 `json:"attempts"`
	Retries          int64 `json:"retries"`
	Recovered        int64 `json:"recovered"`
	Exhausted        int64 `json:"exhausted"`
	Terminal         int64 `json:"terminal"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	BreakerResets    int64 `json:"breaker_resets"`
}

// Snapshot copies the current counter values.
func (s *ResilienceStats) Snapshot() ResilienceSnapshot {
	return ResilienceSnapshot{
		Ops:              s.Ops.Load(),
		Attempts:         s.Attempts.Load(),
		Retries:          s.Retries.Load(),
		Recovered:        s.Recovered.Load(),
		Exhausted:        s.Exhausted.Load(),
		Terminal:         s.Terminal.Load(),
		BreakerTrips:     s.BreakerTrips.Load(),
		BreakerFastFails: s.BreakerFastFails.Load(),
		BreakerResets:    s.BreakerResets.Load(),
	}
}

// Reset zeroes all counters.
func (s *ResilienceStats) Reset() {
	s.Ops.Reset()
	s.Attempts.Reset()
	s.Retries.Reset()
	s.Recovered.Reset()
	s.Exhausted.Reset()
	s.Terminal.Reset()
	s.BreakerTrips.Reset()
	s.BreakerFastFails.Reset()
	s.BreakerResets.Reset()
}

// Sub returns the delta between two snapshots (s - older).
func (s ResilienceSnapshot) Sub(older ResilienceSnapshot) ResilienceSnapshot {
	return ResilienceSnapshot{
		Ops:              s.Ops - older.Ops,
		Attempts:         s.Attempts - older.Attempts,
		Retries:          s.Retries - older.Retries,
		Recovered:        s.Recovered - older.Recovered,
		Exhausted:        s.Exhausted - older.Exhausted,
		Terminal:         s.Terminal - older.Terminal,
		BreakerTrips:     s.BreakerTrips - older.BreakerTrips,
		BreakerFastFails: s.BreakerFastFails - older.BreakerFastFails,
		BreakerResets:    s.BreakerResets - older.BreakerResets,
	}
}

// Snapshot is a point-in-time copy of IndexStats.
type Snapshot struct {
	DHTLookups   int64
	RecordsMoved int64
	Splits       int64
	Merges       int64
	BatchRounds  int64
	BatchProbes  int64
	MaxInFlight  int64
	CacheHits    int64
	CacheMisses  int64
	CacheStale   int64
}

// Snapshot copies the current counter values.
func (s *IndexStats) Snapshot() Snapshot {
	return Snapshot{
		DHTLookups:   s.DHTLookups.Load(),
		RecordsMoved: s.RecordsMoved.Load(),
		Splits:       s.Splits.Load(),
		Merges:       s.Merges.Load(),
		BatchRounds:  s.BatchRounds.Load(),
		BatchProbes:  s.BatchProbes.Load(),
		MaxInFlight:  s.MaxInFlight.Load(),
		CacheHits:    s.CacheHits.Load(),
		CacheMisses:  s.CacheMisses.Load(),
		CacheStale:   s.CacheStale.Load(),
	}
}

// Reset zeroes all counters.
func (s *IndexStats) Reset() {
	s.DHTLookups.Reset()
	s.RecordsMoved.Reset()
	s.Splits.Reset()
	s.Merges.Reset()
	s.BatchRounds.Reset()
	s.BatchProbes.Reset()
	s.MaxInFlight.Reset()
	s.CacheHits.Reset()
	s.CacheMisses.Reset()
	s.CacheStale.Reset()
}

// Sub returns the delta between two snapshots (s - older). MaxInFlight is a
// high-water mark, not a monotonic counter, so the newer snapshot's value is
// kept rather than subtracted.
func (s Snapshot) Sub(older Snapshot) Snapshot {
	return Snapshot{
		DHTLookups:   s.DHTLookups - older.DHTLookups,
		RecordsMoved: s.RecordsMoved - older.RecordsMoved,
		Splits:       s.Splits - older.Splits,
		Merges:       s.Merges - older.Merges,
		BatchRounds:  s.BatchRounds - older.BatchRounds,
		BatchProbes:  s.BatchProbes - older.BatchProbes,
		MaxInFlight:  s.MaxInFlight,
		CacheHits:    s.CacheHits - older.CacheHits,
		CacheMisses:  s.CacheMisses - older.CacheMisses,
		CacheStale:   s.CacheStale - older.CacheStale,
	}
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("lookups=%d moved=%d splits=%d merges=%d",
		s.DHTLookups, s.RecordsMoved, s.Splits, s.Merges)
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs))
}

// NormalizedVariance returns the variance of xs/mean(xs) — the squared
// coefficient of variation. This is the load-variance measure of Fig. 6a: it
// is scale-free, so runs with different data sizes are comparable.
func NormalizedVariance(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return Variance(xs) / (mu * mu)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation. It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Gini returns the Gini coefficient of the (non-negative) values — an
// auxiliary imbalance measure used in the extended load-balance experiments.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += x * float64(2*(i+1)-n-1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}
