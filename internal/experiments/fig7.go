package experiments

import (
	"fmt"

	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/workload"
)

// Fig7RangeQuery reproduces Figs. 7a and 7b: range-query bandwidth (number
// of DHT-lookups) and latency (rounds of DHT-lookups) versus range span,
// for m-LIGHT basic, m-LIGHT parallel with each configured lookahead, PHT,
// and DST. All schemes are loaded with the same dataset and answer the same
// query rectangles; y values are per-query averages.
func Fig7RangeQuery(cfg Config) (bandwidth, latency Table, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Table{}, Table{}, err
	}
	ml, loaded, err := newSchemes(cfg, cfg.ThetaSplit)
	if err != nil {
		return Table{}, Table{}, err
	}
	if err := insertAll(loaded, cfg.records()); err != nil {
		return Table{}, Table{}, err
	}

	type variant struct {
		name  string
		query func(q spatial.Rect) (*index.Result, error)
	}
	variants := []variant{{"m-LIGHT (basic)", ml.RangeQuery}}
	for _, h := range cfg.Lookaheads {
		variants = append(variants, variant{
			name:  fmt.Sprintf("m-LIGHT (parallel-%d)", h),
			query: func(q spatial.Rect) (*index.Result, error) { return ml.RangeQueryParallel(q, h) },
		})
	}
	for _, s := range loaded[1:] {
		variants = append(variants, variant{s.name, s.RangeQuery})
	}

	bwSeries := make([]Series, len(variants))
	latSeries := make([]Series, len(variants))
	for i, s := range variants {
		bwSeries[i].Name = s.name
		latSeries[i].Name = s.name
	}

	gen, err := workload.NewRangeGenerator(cfg.Dims, cfg.Seed+100)
	if err != nil {
		return Table{}, Table{}, err
	}
	for _, span := range cfg.Spans {
		queries, err := gen.SpanBatch(span, cfg.QueriesPerSpan)
		if err != nil {
			return Table{}, Table{}, err
		}
		// The first scheme establishes the answer cardinality per query;
		// every other scheme must match it — a cross-scheme correctness
		// check built into the harness.
		baseline := make([]int, len(queries))
		for si, s := range variants {
			totalLookups, totalRounds := 0, 0
			for qi, q := range queries {
				res, err := s.query(q)
				if err != nil {
					return Table{}, Table{}, fmt.Errorf("experiments: %s span %v query %d: %w", s.name, span, qi, err)
				}
				totalLookups += res.Lookups
				totalRounds += res.Rounds
				n := len(res.Records)
				if si == 0 {
					baseline[qi] = n
				} else if n != baseline[qi] {
					return Table{}, Table{}, fmt.Errorf(
						"experiments: %s span %v query %d returned %d records, m-LIGHT returned %d",
						s.name, span, qi, n, baseline[qi])
				}
			}
			q := float64(len(queries))
			bwSeries[si].Points = append(bwSeries[si].Points, Point{X: span, Y: float64(totalLookups) / q})
			latSeries[si].Points = append(latSeries[si].Points, Point{X: span, Y: float64(totalRounds) / q})
		}
	}
	bandwidth = Table{
		ID: "Fig7a", Title: "Range query: bandwidth vs range span",
		XLabel: "range span", YLabel: "DHT-lookups per query",
		Series: bwSeries,
	}
	latency = Table{
		ID: "Fig7b", Title: "Range query: latency vs range span",
		XLabel: "range span", YLabel: "rounds of DHT-lookups per query",
		Series: latSeries,
	}
	return bandwidth, latency, nil
}
