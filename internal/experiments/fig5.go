package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/dst"
	"mlight/internal/index"
	"mlight/internal/pht"
	"mlight/internal/spatial"
)

// schemeNames are the compared schemes, in the order every figure lists them.
var schemeNames = []string{"m-LIGHT", "PHT", "DST"}

// scheme is one compared index under the name its series carry.
type scheme struct {
	name string
	index.Querier
}

// newSchemes builds the three comparison schemes with matched parameters,
// each over its own in-process DHT. The m-LIGHT index is also returned by
// its own type for the operations the baselines lack.
func newSchemes(cfg Config, theta int) (*core.Index, []scheme, error) {
	return newSchemesOver(cfg, theta, dht.MustNewLocal(cfg.Peers), dht.MustNewLocal(cfg.Peers), dht.MustNewLocal(cfg.Peers))
}

// newSchemesOver is newSchemes over the given substrates, in schemeNames
// order.
func newSchemesOver(cfg Config, theta int, mlDHT, phtDHT, dstDHT dht.DHT) (*core.Index, []scheme, error) {
	t := cfg.tuning(theta)
	ml, err := core.New(mlDHT, t)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: m-LIGHT: %w", err)
	}
	ph, err := pht.New(phtDHT, t)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: PHT: %w", err)
	}
	ds, err := dst.New(dstDHT, t)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: DST: %w", err)
	}
	return ml, []scheme{{schemeNames[0], ml}, {schemeNames[1], ph}, {schemeNames[2], ds}}, nil
}

// insertAll feeds each record to every scheme in turn.
func insertAll(schemes []scheme, records []spatial.Record) error {
	for i, rec := range records {
		for _, s := range schemes {
			if err := s.Insert(rec); err != nil {
				return fmt.Errorf("experiments: %s insert #%d: %w", s.name, i, err)
			}
		}
	}
	return nil
}

// maintenanceCost collects Fig. 5's two cost axes, one series per scheme.
type maintenanceCost struct {
	lookups, moved []Series
}

func newMaintenanceCost() maintenanceCost {
	c := maintenanceCost{make([]Series, len(schemeNames)), make([]Series, len(schemeNames))}
	for i, name := range schemeNames {
		c.lookups[i].Name, c.moved[i].Name = name, name
	}
	return c
}

// sample appends each scheme's counters so far at x.
func (c maintenanceCost) sample(x float64, schemes []scheme) {
	for i, s := range schemes {
		snap := s.Stats()
		c.lookups[i].Points = append(c.lookups[i].Points, Point{X: x, Y: float64(snap.DHTLookups)})
		c.moved[i].Points = append(c.moved[i].Points, Point{X: x, Y: float64(snap.RecordsMoved)})
	}
}

// Fig5DataSize reproduces Figs. 5a and 5b: cumulative DHT-lookup and
// data-movement cost of progressive insertion, for m-LIGHT, PHT, and DST.
func Fig5DataSize(cfg Config) (lookups, movement Table, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Table{}, Table{}, err
	}
	records := cfg.records()
	_, schemes, err := newSchemes(cfg, cfg.ThetaSplit)
	if err != nil {
		return Table{}, Table{}, err
	}
	cost := newMaintenanceCost()
	done := 0
	for _, mark := range checkpointSizes(len(records), cfg.Checkpoints) {
		if err := insertAll(schemes, records[done:mark]); err != nil {
			return Table{}, Table{}, fmt.Errorf("after %d records: %w", done, err)
		}
		done = mark
		cost.sample(float64(mark), schemes)
	}
	lookups = Table{
		ID: "Fig5a", Title: "Maintenance: DHT-lookup cost vs data size",
		XLabel: "data size", YLabel: "DHT-lookups (cumulative)",
		Series: cost.lookups,
	}
	movement = Table{
		ID: "Fig5b", Title: "Maintenance: data-movement cost vs data size",
		XLabel: "data size", YLabel: "records moved (cumulative)",
		Series: cost.moved,
	}
	return lookups, movement, nil
}

// Fig5Theta reproduces Figs. 5c and 5d: total maintenance cost of loading
// the full dataset, for a sweep of θsplit.
func Fig5Theta(cfg Config) (lookups, movement Table, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Table{}, Table{}, err
	}
	records := cfg.records()
	cost := newMaintenanceCost()
	for _, theta := range cfg.Thetas {
		_, schemes, err := newSchemes(cfg, theta)
		if err != nil {
			return Table{}, Table{}, err
		}
		if err := insertAll(schemes, records); err != nil {
			return Table{}, Table{}, fmt.Errorf("θ=%d: %w", theta, err)
		}
		cost.sample(float64(theta), schemes)
	}
	lookups = Table{
		ID: "Fig5c", Title: "Maintenance: DHT-lookup cost vs θsplit",
		XLabel: "θsplit", YLabel: "DHT-lookups (total)",
		Series: cost.lookups,
	}
	movement = Table{
		ID: "Fig5d", Title: "Maintenance: data-movement cost vs θsplit",
		XLabel: "θsplit", YLabel: "records moved (total)",
		Series: cost.moved,
	}
	return lookups, movement, nil
}
