package experiments

import (
	"fmt"
	"time"

	"mlight/internal/dataset"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// Config parameterises the experiment suite. A zero field means "not set":
// the section's preset fills it, then the paper's setup (§7.1): the NE
// dataset, a DHT of >100 logical peers, θsplit = 100, ε = 70, D = 28.
type Config struct {
	// Dims is the data dimensionality. Default 2.
	Dims int
	// DataSize is how many records to index. Default dataset.NESize
	// (123,593). Ignored when Records is set.
	DataSize int
	// Records overrides the synthetic dataset (e.g. the real NE file).
	Records []spatial.Record
	// Peers is the number of logical DHT peers. Default 128 ("more than
	// one hundred logical peers").
	Peers int
	// ThetaSplit is θsplit (and PHT's leaf capacity and DST's node
	// capacity). Default 100.
	ThetaSplit int
	// Epsilon is the data-aware expected load ε. Default 70.
	Epsilon int
	// MaxDepth is the index depth bound D. Default 28.
	MaxDepth int
	// Seed drives dataset generation and query placement. Default 1.
	Seed int64
	// Checkpoints is the number of x-axis samples in progressive
	// experiments (Figs. 5a/5b, 6). Default 6, matching the paper's plots.
	Checkpoints int
	// Thetas is the θsplit sweep of Figs. 5c/5d. Default
	// {50, 100, 300, 600, 900}.
	Thetas []int
	// Spans is the range-span sweep of Fig. 7. Default
	// {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}.
	Spans []float64
	// QueriesPerSpan is how many random rectangles are averaged per span
	// point. Default 50.
	QueriesPerSpan int
	// Lookaheads lists the parallel variants of Fig. 7 (h values).
	// Default {2, 4}.
	Lookaheads []int
	// HopDelay is the simulated one-way per-hop delay every overlay RPC of
	// the wall-clock sections (concurrency, lookup, ingest) pays in real
	// time. Default 1ms.
	HopDelay time.Duration
	// TraceJSON and TraceTree are the files the trace section writes its
	// Chrome trace_event export and its span tree to; empty writes neither.
	TraceJSON, TraceTree string
}

// Scale selects the preset that fills what the caller left unset.
type Scale int

const (
	// Full is the scale the committed results were produced at.
	Full Scale = iota
	// Quick is the reduced preset: the same shapes in seconds.
	Quick
)

// paperFull is the paper's setup and paperQuick its reduced twin; a section
// that needs another scale states only the fields it changes.
var (
	paperFull = Config{
		Dims:           2,
		DataSize:       dataset.NESize,
		Peers:          128,
		ThetaSplit:     100,
		Epsilon:        70,
		MaxDepth:       28,
		Seed:           1,
		Checkpoints:    6,
		Thetas:         []int{50, 100, 300, 600, 900},
		Spans:          []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		QueriesPerSpan: 50,
		Lookaheads:     []int{2, 4},
		HopDelay:       time.Millisecond,
	}
	paperQuick = Config{
		DataSize:       10000,
		ThetaSplit:     50,
		Epsilon:        35,
		MaxDepth:       22,
		Thetas:         []int{25, 50, 100, 200},
		QueriesPerSpan: 15,
	}
)

// or returns c with every unset field taken from p.
func (c Config) or(p Config) Config {
	fill(&c.Dims, p.Dims)
	fill(&c.DataSize, p.DataSize)
	fill(&c.Peers, p.Peers)
	fill(&c.ThetaSplit, p.ThetaSplit)
	fill(&c.Epsilon, p.Epsilon)
	fill(&c.MaxDepth, p.MaxDepth)
	fill(&c.Seed, p.Seed)
	fill(&c.Checkpoints, p.Checkpoints)
	fill(&c.QueriesPerSpan, p.QueriesPerSpan)
	fill(&c.HopDelay, p.HopDelay)
	fill(&c.TraceJSON, p.TraceJSON)
	fill(&c.TraceTree, p.TraceTree)
	fillSlice(&c.Records, p.Records)
	fillSlice(&c.Thetas, p.Thetas)
	fillSlice(&c.Spans, p.Spans)
	fillSlice(&c.Lookaheads, p.Lookaheads)
	return c
}

func fill[T comparable](v *T, preset T) {
	var zero T
	if *v == zero {
		*v = preset
	}
}

func fillSlice[T any](v *[]T, preset []T) {
	if len(*v) == 0 {
		*v = preset
	}
}

// at resolves the configuration a section runs with: what the caller set,
// then the section's own preset at that scale, then the paper's.
func (c Config) at(scale Scale, section Config) (Config, error) {
	c = c.or(section)
	if scale == Quick {
		c = c.or(paperQuick)
	}
	c = c.or(paperFull)
	return c, c.validate()
}

// withDefaults is at(Full) for a figure called directly, outside the table.
func (c Config) withDefaults() Config { return c.or(paperFull) }

func (c Config) validate() error {
	if c.Dims < 1 {
		return fmt.Errorf("experiments: Dims must be ≥ 1")
	}
	if c.DataSize < 1 && len(c.Records) == 0 {
		return fmt.Errorf("experiments: DataSize must be ≥ 1")
	}
	if c.Peers < 1 {
		return fmt.Errorf("experiments: Peers must be ≥ 1")
	}
	if c.ThetaSplit < 2 {
		return fmt.Errorf("experiments: ThetaSplit must be ≥ 2")
	}
	if c.Epsilon < 1 {
		return fmt.Errorf("experiments: Epsilon must be ≥ 1")
	}
	if c.HopDelay <= 0 {
		return fmt.Errorf("experiments: HopDelay must be positive, got %v (a zero-delay network would make the wall-clock comparisons meaningless)", c.HopDelay)
	}
	return nil
}

// tuning is the index configuration every experiment builds its schemes
// with — the paper's one parameter set (§7.1) at capacity theta; θmerge
// defaults to theta/2.
func (c Config) tuning(theta int) index.Tuning {
	return index.Tuning{Dims: c.Dims, MaxDepth: c.MaxDepth, Capacity: theta}
}

// records materialises the configured dataset. The synthetic NE model only
// produces 2-D data; other dimensionalities fall back to uniform data.
func (c Config) records() []spatial.Record {
	if len(c.Records) > 0 {
		return c.Records
	}
	if c.Dims == 2 {
		return dataset.Generate(c.DataSize, c.Seed)
	}
	return dataset.Uniform(c.DataSize, c.Dims, c.Seed)
}

// checkpointSizes returns the progressive x-axis sample sizes.
func checkpointSizes(n, checkpoints int) []int {
	if checkpoints < 1 {
		checkpoints = 1
	}
	out := make([]int, 0, checkpoints)
	for i := 1; i <= checkpoints; i++ {
		out = append(out, n*i/checkpoints)
	}
	return out
}
