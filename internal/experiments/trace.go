package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"mlight"
	"mlight/internal/dataset"
	"mlight/internal/trace"
)

// traceMaxRecords caps the routed load: the trace covers one query, so a
// small load suffices.
const traceMaxRecords = 2000

// runTrace runs one instrumented range query over a routed Chord cluster —
// every stage from the query down to individual simulated network hops lands
// in the same collector — and exports the trace: a Chrome trace_event JSON
// (open in Perfetto or chrome://tracing) to cfg.TraceJSON and a
// human-readable span tree with a per-stage latency summary to
// cfg.TraceTree. MaxInFlight = 1 keeps execution sequential so the artifact
// is reproducible.
func runTrace(cfg Config, scale Scale) (Report, error) {
	cfg, err := cfg.at(scale, Config{})
	if err != nil {
		return Report{}, err
	}
	ring, net, err := mlight.NewChordCluster(16, cfg.Seed)
	if err != nil {
		return Report{}, err
	}
	tc := mlight.NewTraceCollector()
	ix, err := mlight.New(ring,
		mlight.WithCapacity(cfg.ThetaSplit),
		mlight.WithMergeThreshold(cfg.ThetaSplit/2),
		mlight.WithMaxInFlight(1),
		mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 3, Sleep: mlight.NoSleep}),
		mlight.WithTrace(tc),
	)
	if err != nil {
		return Report{}, err
	}
	records := cfg.Records
	if records == nil {
		records = dataset.Generate(min(cfg.DataSize, traceMaxRecords), cfg.Seed)
	}
	for _, rec := range records {
		if err := ix.Insert(rec); err != nil {
			return Report{}, err
		}
	}
	net.SetTracer(tc) // attach after the bulk load: trace the query's hops only
	tc.Reset()

	q, err := mlight.NewRect(mlight.Point{0.3, 0.45}, mlight.Point{0.5, 0.65})
	if err != nil {
		return Report{}, err
	}
	res, err := ix.RangeQuery(q)
	if err != nil {
		return Report{}, err
	}
	var summary strings.Builder
	if err := tc.WriteSummary(&summary); err != nil {
		return Report{}, err
	}
	rep := Report{Lines: []string{
		fmt.Sprintf("window [0.30,0.45]–[0.50,0.65] over %d records on 16 Chord peers:", len(records)),
		fmt.Sprintf("  %d records, %d DHT-lookups, %d rounds — %d spans recorded",
			len(res.Records), res.Lookups, res.Rounds, tc.Len()),
		strings.TrimSuffix(summary.String(), "\n"),
	}}
	if cfg.TraceJSON != "" {
		var buf bytes.Buffer
		if err := tc.WriteTraceEvent(&buf); err != nil {
			return Report{}, err
		}
		if err := trace.ValidateTraceEvent(buf.Bytes()); err != nil {
			return Report{}, fmt.Errorf("exported trace fails its own schema: %w", err)
		}
		if err := os.WriteFile(cfg.TraceJSON, buf.Bytes(), 0o644); err != nil {
			return Report{}, err
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("(chrome trace written to %s)", cfg.TraceJSON))
	}
	if cfg.TraceTree != "" {
		var buf bytes.Buffer
		if err := tc.WriteTree(&buf); err != nil {
			return Report{}, err
		}
		buf.WriteByte('\n')
		buf.WriteString(summary.String())
		if err := os.WriteFile(cfg.TraceTree, buf.Bytes(), 0o644); err != nil {
			return Report{}, err
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("(span tree written to %s)", cfg.TraceTree))
	}
	return rep, nil
}
