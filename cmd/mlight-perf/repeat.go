package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// summary is one end-to-end metric over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

// repeatRecord is the output of -repeat for one workload.
type repeatRecord struct {
	Record   string             `json:"record"`
	Env      envRecord          `json:"env"`
	Runs     int                `json:"runs"`
	Failed   int                `json:"failed"`
	Attempts int                `json:"attempted"`
	Metrics  map[string]summary `json:"metrics"`
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so spreads computed here are the spreads
// the benchmark's driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeat runs the workload n times on consecutive seeds with tracing off
// and prints each end-to-end metric's median, quartiles and spread.
func repeat(w io.Writer, s *spec, o options, firstSeed int64, n int) (repeatRecord, error) {
	rec := repeatRecord{Record: "repeat", Runs: n, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		env, res, err := untracedRun(s, o, firstSeed+int64(i))
		if err != nil {
			return rec, err
		}
		if i == 0 {
			rec.Env = env
		}
		rec.Failed += res.Failed
		rec.Attempts += res.Attempted
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(w, "# %s run %d/%d seed %d: ops_s %.0f, failed %d\n", s.name, i+1, n, env.Seed, res.Metrics["ops_s"].Value, res.Failed)
	}
	for _, def := range endToEnd {
		q1, q2, q3 := quartiles(values[def.Name])
		rec.Metrics[def.Name] = summary{def.Unit, q2, q1, q3, ratio(q3-q1, q2), values[def.Name]}
		fmt.Fprintf(w, "%-14s %-26s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%% (bound %2.0f%%) %s\n",
			s.name, def.Name, q2, q1, q3, 100*ratio(q3-q1, q2), 100*def.Bound, def.Unit)
	}
	printJSON(w, rec)
	if rec.Failed > 0 {
		return rec, fmt.Errorf("%s: %d of %d operations failed", s.name, rec.Failed, rec.Attempts)
	}
	return rec, nil
}

// selfCheck runs two sets of runs of this same binary and fails if any
// end-to-end metric's set medians differ, in either direction, by more than
// the metric's bound: noise that flatters the second set is the same noise
// that would flag it, and the benchmark must not flag itself.
func selfCheck(w io.Writer, s *spec, o options) error {
	n := o.repeat
	if n == 0 {
		n = 5
	}
	first, err := repeat(w, s, o, o.seed, n)
	if err != nil {
		return err
	}
	second, err := repeat(w, s, o, o.seed, n)
	if err != nil {
		return err
	}
	var bad int
	for _, def := range endToEnd {
		a, b := first.Metrics[def.Name].Median, second.Metrics[def.Name].Median
		moved := math.Abs(ratio(b-a, a))
		verdict := "ok"
		if moved > def.Bound {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(w, "selfcheck %-14s %-26s %12.6g -> %12.6g  moved by %6.2f%% (bound %2.0f%%) %s\n",
			s.name, def.Name, a, b, 100*moved, 100*def.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%s: selfcheck: %d metrics moved by more than their bound between two sets of runs of the same code", s.name, bad)
	}
	return nil
}
