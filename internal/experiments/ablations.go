package experiments

import (
	"fmt"

	"mlight/internal/dataset"
	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
	"mlight/internal/workload"
)

// Ablations runs the design-choice experiments that go beyond the paper's
// evaluation:
//
//   - AblLookahead: the parallel range query's bandwidth/latency trade as
//     the lookahead h grows (the paper shows h ∈ {2,4}; this sweeps further);
//   - AblSplitCost: records moved per split event for m-LIGHT versus PHT —
//     Theorem 5's incremental-maintenance claim isolated from lookups;
//   - AblOverlay: mean overlay route length per DHT operation for Chord and
//     Pastry as the ring grows — the cost hidden beneath one "DHT-lookup";
//   - AblDims: lookup probes and per-insert cost as dimensionality m grows
//     (the paper's algorithms are defined for any m but evaluated at m=2).
func Ablations(cfg Config) ([]Table, error) {
	return runEach(cfg, ablationLookahead, ablationSplitCost, ablationOverlay, ablationDims, ablationBulkLoad)
}

// ablationBulkLoad compares offline bulk loading against progressive
// insertion (an extension beyond the paper's insert-only maintenance
// study).
func ablationBulkLoad(cfg Config) (Table, error) {
	all := cfg.records()
	bulk := Series{Name: "bulk-load DHT-lookups"}
	incr := Series{Name: "incremental DHT-lookups"}
	for _, frac := range []int{4, 2, 1} {
		records := all[:len(all)/frac]
		bulkIx, err := loadIndex(dht.MustNewLocal(cfg.Peers), cfg.tuning(cfg.ThetaSplit), nil)
		if err != nil {
			return Table{}, err
		}
		if err := bulkIx.BulkLoad(records); err != nil {
			return Table{}, fmt.Errorf("experiments: bulk-load ablation: %w", err)
		}
		incrIx, err := loadIndex(dht.MustNewLocal(cfg.Peers), cfg.tuning(cfg.ThetaSplit), records)
		if err != nil {
			return Table{}, fmt.Errorf("bulk-load ablation: %w", err)
		}
		x := float64(len(records))
		bulk.Points = append(bulk.Points, Point{X: x, Y: float64(bulkIx.Stats().DHTLookups)})
		incr.Points = append(incr.Points, Point{X: x, Y: float64(incrIx.Stats().DHTLookups)})
	}
	return Table{
		ID:     "AblBulkLoad",
		Title:  "Offline bulk load vs progressive insertion",
		XLabel: "data size", YLabel: "DHT-lookups (total)",
		Series: []Series{bulk, incr},
	}, nil
}

// ablationLookahead sweeps the parallel lookahead h at a fixed span.
func ablationLookahead(cfg Config) (Table, error) {
	ix, err := loadIndex(dht.MustNewLocal(cfg.Peers), cfg.tuning(cfg.ThetaSplit), cfg.records())
	if err != nil {
		return Table{}, fmt.Errorf("lookahead ablation: %w", err)
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+200)
	if err != nil {
		return Table{}, err
	}
	const span = 0.3
	queries, err := gen.SpanBatch(span, cfg.QueriesPerSpan)
	if err != nil {
		return Table{}, err
	}
	bw := Series{Name: "DHT-lookups per query"}
	lat := Series{Name: "rounds per query"}
	for _, h := range []int{1, 2, 4, 8, 16, 32} {
		totalL, totalR := 0, 0
		for _, q := range queries {
			res, err := ix.RangeQueryParallel(q, h)
			if err != nil {
				return Table{}, err
			}
			totalL += res.Lookups
			totalR += res.Rounds
		}
		n := float64(len(queries))
		bw.Points = append(bw.Points, Point{X: float64(h), Y: float64(totalL) / n})
		lat.Points = append(lat.Points, Point{X: float64(h), Y: float64(totalR) / n})
	}
	return Table{
		ID:     "AblLookahead",
		Title:  fmt.Sprintf("Parallel lookahead sweep (span %.2f)", span),
		XLabel: "lookahead h", YLabel: "per-query cost",
		Series: []Series{bw, lat},
	}, nil
}

// ablationSplitCost isolates Theorem 5: records moved per split event.
func ablationSplitCost(cfg Config) (Table, error) {
	records := cfg.records()
	ml := Series{Name: "m-LIGHT moved per split"}
	ph := Series{Name: "PHT moved per split"}
	for _, theta := range cfg.Thetas {
		_, schemes, err := newSchemes(cfg, theta)
		if err != nil {
			return Table{}, err
		}
		if err := insertAll(schemes[:2], records); err != nil {
			return Table{}, fmt.Errorf("split ablation: %w", err)
		}
		mlStats, phStats := schemes[0].Stats(), schemes[1].Stats()
		// Subtract the one-per-insert placement movement to isolate split
		// transfers.
		n := int64(len(records))
		if mlStats.Splits > 0 {
			ml.Points = append(ml.Points, Point{
				X: float64(theta),
				Y: float64(mlStats.RecordsMoved-n) / float64(mlStats.Splits),
			})
		}
		if phStats.Splits > 0 {
			ph.Points = append(ph.Points, Point{
				X: float64(theta),
				Y: float64(phStats.RecordsMoved-n) / float64(phStats.Splits),
			})
		}
	}
	return Table{
		ID:     "AblSplitCost",
		Title:  "Incremental maintenance (Theorem 5): records moved per split event",
		XLabel: "θsplit", YLabel: "records moved per split",
		Series: []Series{ml, ph},
	}, nil
}

// ablationOverlay measures mean route length under the index workload as
// the overlay grows.
func ablationOverlay(cfg Config) (Table, error) {
	// A reduced record count keeps overlay runs fast; route length depends
	// on the ring size, not the data volume.
	records := dataset.Generate(min(cfg.DataSize, 2000), cfg.Seed)
	series := []Series{
		{Name: "Chord hops per DHT op"},
		{Name: "Pastry hops per DHT op"},
		{Name: "Kademlia RPCs per DHT op"},
	}
	for _, peers := range []int{8, 16, 32, 64} {
		for i, name := range substrate.Names {
			o, err := substrate.Cluster(name, simnet.New(simnet.Options{}), peers, overlay.Config{Seed: cfg.Seed})
			if err != nil {
				return Table{}, err
			}
			o.Hops.Reset()
			o.Lookups.Reset()
			if err := runIndexWorkload(o, cfg, records); err != nil {
				return Table{}, fmt.Errorf("experiments: %s overlay ablation: %w", name, err)
			}
			series[i].Points = append(series[i].Points, Point{X: float64(peers), Y: o.MeanRouteLength()})
		}
	}
	return Table{
		ID:     "AblOverlay",
		Title:  "Substrate ablation: overlay route length under the index workload",
		XLabel: "peers", YLabel: "mean hops per DHT operation",
		Series: series,
	}, nil
}

// runIndexWorkload loads records and runs a few range queries through an
// m-LIGHT index over the given substrate. It runs one probe at a time: a
// hosting overlay draws each operation's entry node from one shared random
// source, so probes fanned out on goroutines would draw in scheduling order
// and the mean route length would differ from run to run.
func runIndexWorkload(d dht.DHT, cfg Config, records []spatial.Record) error {
	t := cfg.tuning(cfg.ThetaSplit)
	t.MaxInFlight = 1
	ix, err := loadIndex(d, t, records)
	if err != nil {
		return err
	}
	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+300)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		q, err := gen.Span(0.2)
		if err != nil {
			return err
		}
		if _, err := ix.RangeQuery(q); err != nil {
			return fmt.Errorf("query #%d: %w", i, err)
		}
	}
	return nil
}

// ablationDims sweeps dimensionality with uniform data.
func ablationDims(cfg Config) (Table, error) {
	probes := Series{Name: "mean lookup probes"}
	insertCost := Series{Name: "DHT-lookups per insert"}
	n := min(cfg.DataSize, 10000)
	for _, m := range []int{1, 2, 3, 4, 5} {
		records := dataset.Uniform(n, m, cfg.Seed)
		t := cfg.tuning(cfg.ThetaSplit)
		t.Dims, t.MaxDepth = m, min(cfg.MaxDepth, 63-m)
		ix, err := loadIndex(dht.MustNewLocal(cfg.Peers), t, records)
		if err != nil {
			return Table{}, fmt.Errorf("dims ablation m=%d: %w", m, err)
		}
		stats := ix.Stats()
		insertCost.Points = append(insertCost.Points, Point{
			X: float64(m), Y: float64(stats.DHTLookups) / float64(n),
		})
		totalProbes := 0
		sample := records[:min(len(records), 500)]
		for _, rec := range sample {
			_, trace, err := ix.LookupTraced(rec.Key)
			if err != nil {
				return Table{}, err
			}
			totalProbes += trace.Probes
		}
		probes.Points = append(probes.Points, Point{
			X: float64(m), Y: float64(totalProbes) / float64(len(sample)),
		})
	}
	return Table{
		ID:     "AblDims",
		Title:  "Dimensionality sweep (uniform data)",
		XLabel: "dimensionality m", YLabel: "cost",
		Series: []Series{probes, insertCost},
	}, nil
}
