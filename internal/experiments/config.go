package experiments

import (
	"fmt"

	"mlight/internal/dataset"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// Config parameterises the experiment suite. Zero fields take the listed
// defaults, which mirror the paper's setup (§7.1): the NE dataset, a DHT of
// >100 logical peers, θsplit = 100, ε = 70, D = 28.
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
}

func (c Config) withDefaults() Config {
	if c.Dims == 0 {
		c.Dims = 2
	}
	if c.DataSize == 0 {
		c.DataSize = dataset.NESize
	}
	if c.Peers == 0 {
		c.Peers = 128
	}
	if c.ThetaSplit == 0 {
		c.ThetaSplit = 100
	}
	if c.Epsilon == 0 {
		c.Epsilon = 70
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 28
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 6
	}
	if len(c.Thetas) == 0 {
		c.Thetas = []int{50, 100, 300, 600, 900}
	}
	if len(c.Spans) == 0 {
		c.Spans = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	}
	if c.QueriesPerSpan == 0 {
		c.QueriesPerSpan = 50
	}
	if len(c.Lookaheads) == 0 {
		c.Lookaheads = []int{2, 4}
	}
	return c
}

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
