package experiments

import (
	"fmt"
	"sync"

	"mlight/internal/dht"
	"mlight/internal/metrics"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/workload"
)

// Extensions runs the extension experiments that quantify behaviours the
// paper only touches in prose:
//
//   - ExtQueryLoad: how evenly the *query-processing* load (peer accesses
//     during range queries) spreads over the peers, per scheme;
//   - ExtChurnAvailability: the fraction of range queries that still
//     succeed as peers crash, with and without replication.
func Extensions(cfg Config) ([]Table, error) {
	return runEach(cfg, extensionQueryLoad, extensionChurnAvailability)
}

// accessCounter decorates a substrate and counts operations per owning
// peer — the query-processing load each peer carries.
type accessCounter struct {
	inner *dht.Local

	mu     sync.Mutex
	counts map[string]float64
}

var _ dht.DHT = (*accessCounter)(nil)

func newAccessCounter(peers int) *accessCounter {
	return &accessCounter{
		inner:  dht.MustNewLocal(peers),
		counts: make(map[string]float64),
	}
}

func (a *accessCounter) charge(key dht.Key) {
	owner, err := a.inner.Owner(key)
	if err != nil {
		return
	}
	a.mu.Lock()
	a.counts[owner]++
	a.mu.Unlock()
}

func (a *accessCounter) reset() {
	a.mu.Lock()
	a.counts = make(map[string]float64)
	a.mu.Unlock()
}

// perPeerLoads returns access counts over all peers (zero included).
func (a *accessCounter) perPeerLoads() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]float64, 0, len(a.inner.Peers()))
	for _, p := range a.inner.Peers() {
		out = append(out, a.counts[p])
	}
	return out
}

// Put implements dht.DHT.
func (a *accessCounter) Put(key dht.Key, value any) error {
	a.charge(key)
	return a.inner.Put(key, value)
}

// Get implements dht.DHT.
func (a *accessCounter) Get(key dht.Key) (any, bool, error) {
	a.charge(key)
	return a.inner.Get(key)
}

// Remove implements dht.DHT.
func (a *accessCounter) Remove(key dht.Key) error {
	a.charge(key)
	return a.inner.Remove(key)
}

// Apply implements dht.DHT.
func (a *accessCounter) Apply(key dht.Key, fn dht.ApplyFunc) error {
	a.charge(key)
	return a.inner.Apply(key, fn)
}

// Owner implements dht.DHT.
func (a *accessCounter) Owner(key dht.Key) (string, error) {
	return a.inner.Owner(key)
}

// Range implements dht.Enumerator (uncounted measurement aid).
func (a *accessCounter) Range(fn func(key dht.Key, value any) bool) error {
	return a.inner.Range(fn)
}

// extensionQueryLoad measures the skew of per-peer access counts while
// answering a range-query workload, per scheme.
func extensionQueryLoad(cfg Config) (Table, error) {
	records := cfg.records()
	counters := []*accessCounter{newAccessCounter(cfg.Peers), newAccessCounter(cfg.Peers), newAccessCounter(cfg.Peers)}
	ml, schemes, err := newSchemesOver(cfg, cfg.ThetaSplit, counters[0], counters[1], counters[2])
	if err != nil {
		return Table{}, err
	}
	// Loading is not the measured phase: m-LIGHT takes its bulk path, the
	// baselines (which have none) insert progressively.
	if err := ml.BulkLoad(records); err != nil {
		return Table{}, err
	}
	if err := insertAll(schemes[1:], records); err != nil {
		return Table{}, err
	}
	series := make([]Series, len(schemes))
	for i, s := range schemes {
		series[i].Name = s.name
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+400)
	if err != nil {
		return Table{}, err
	}
	for _, span := range cfg.Spans {
		queries, err := gen.SpanBatch(span, cfg.QueriesPerSpan)
		if err != nil {
			return Table{}, err
		}
		for si, s := range schemes {
			counters[si].reset()
			for _, q := range queries {
				if _, err := s.RangeQuery(q); err != nil {
					return Table{}, fmt.Errorf("extension query load: %s: %w", s.name, err)
				}
			}
			series[si].Points = append(series[si].Points, Point{
				X: span,
				Y: metrics.NormalizedVariance(counters[si].perPeerLoads()),
			})
		}
	}
	return Table{
		ID:     "ExtQueryLoad",
		Title:  "Query-processing load balance: per-peer access skew vs range span",
		XLabel: "range span", YLabel: "normalised variance of per-peer accesses",
		Series: series,
	}, nil
}

// extensionChurnAvailability crashes peers one at a time on a Chord ring
// and measures query availability, with and without replication.
func extensionChurnAvailability(cfg Config) (Table, error) {
	const ringSize = 24
	records := cfg.records()
	if len(records) > 4000 {
		records = records[:4000]
	}
	series := make([]Series, 0, 2)
	for _, repl := range []int{1, 3} {
		ring, ix, err := deploy(simnet.New(simnet.Options{}), ringSize, overlay.Config{Seed: cfg.Seed, Replication: repl}, cfg.tuning(cfg.ThetaSplit), records)
		if err != nil {
			return Table{}, err
		}
		ring.Stabilize(1)
		gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+500)
		if err != nil {
			return Table{}, err
		}
		name := "no replication"
		if repl > 1 {
			name = fmt.Sprintf("replication r=%d", repl)
		}
		s := Series{Name: name}
		availability := func(crashed int) error {
			ok := 0
			const probes = 30
			for i := 0; i < probes; i++ {
				q, err := gen.Span(0.1)
				if err != nil {
					return err
				}
				if _, err := ix.RangeQuery(q); err == nil {
					ok++
				}
			}
			s.Points = append(s.Points, Point{X: float64(crashed), Y: float64(ok) / probes})
			return nil
		}
		if err := availability(0); err != nil {
			return Table{}, err
		}
		for crashed := 1; crashed <= 5; crashed++ {
			victim := simnet.NodeID(fmt.Sprintf("node-%d", crashed*4))
			if err := ring.CrashNode(victim); err != nil {
				return Table{}, err
			}
			ring.Stabilize(2)
			if err := availability(crashed); err != nil {
				return Table{}, err
			}
		}
		series = append(series, s)
	}
	return Table{
		ID:     "ExtChurnAvailability",
		Title:  "Index availability under crashes (24-peer Chord ring)",
		XLabel: "peers crashed", YLabel: "fraction of range queries answered",
		Series: series,
	}, nil
}
