package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/dst"
	"mlight/internal/metrics"
	"mlight/internal/pht"
)

// schemeSet builds the three comparison schemes with matched parameters.
type schemeSet struct {
	mlight *core.Index
	pht    *pht.Index
	dst    *dst.Index
}

func newSchemeSet(cfg Config, theta int) (schemeSet, error) {
	var s schemeSet
	t := cfg.tuning(theta)
	ml, err := core.New(dht.MustNewLocal(cfg.Peers), t)
	if err != nil {
		return s, fmt.Errorf("experiments: m-LIGHT: %w", err)
	}
	ph, err := pht.New(dht.MustNewLocal(cfg.Peers), t)
	if err != nil {
		return s, fmt.Errorf("experiments: PHT: %w", err)
	}
	ds, err := dst.New(dht.MustNewLocal(cfg.Peers), t)
	if err != nil {
		return s, fmt.Errorf("experiments: DST: %w", err)
	}
	s.mlight, s.pht, s.dst = ml, ph, ds
	return s, nil
}

// Fig5DataSize reproduces Figs. 5a and 5b: cumulative DHT-lookup and
// data-movement cost of progressive insertion, for m-LIGHT, PHT, and DST.
func Fig5DataSize(cfg Config) (lookups, movement Table, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Table{}, Table{}, err
	}
	records := cfg.records()
	set, err := newSchemeSet(cfg, cfg.ThetaSplit)
	if err != nil {
		return Table{}, Table{}, err
	}

	names := []string{"m-LIGHT", "PHT", "DST"}
	lookupSeries := make([]Series, 3)
	moveSeries := make([]Series, 3)
	for i, n := range names {
		lookupSeries[i].Name = n
		moveSeries[i].Name = n
	}

	marks := checkpointSizes(len(records), cfg.Checkpoints)
	next := 0
	for i, rec := range records {
		if err := set.mlight.Insert(rec); err != nil {
			return Table{}, Table{}, fmt.Errorf("experiments: m-LIGHT insert #%d: %w", i, err)
		}
		if err := set.pht.Insert(rec); err != nil {
			return Table{}, Table{}, fmt.Errorf("experiments: PHT insert #%d: %w", i, err)
		}
		if err := set.dst.Insert(rec); err != nil {
			return Table{}, Table{}, fmt.Errorf("experiments: DST insert #%d: %w", i, err)
		}
		if next < len(marks) && i+1 == marks[next] {
			x := float64(i + 1)
			snaps := []metrics.Snapshot{set.mlight.Stats(), set.pht.Stats(), set.dst.Stats()}
			for j, snap := range snaps {
				lookupSeries[j].Points = append(lookupSeries[j].Points, Point{X: x, Y: float64(snap.DHTLookups)})
				moveSeries[j].Points = append(moveSeries[j].Points, Point{X: x, Y: float64(snap.RecordsMoved)})
			}
			next++
		}
	}
	lookups = Table{
		ID: "Fig5a", Title: "Maintenance: DHT-lookup cost vs data size",
		XLabel: "data size", YLabel: "DHT-lookups (cumulative)",
		Series: lookupSeries,
	}
	movement = Table{
		ID: "Fig5b", Title: "Maintenance: data-movement cost vs data size",
		XLabel: "data size", YLabel: "records moved (cumulative)",
		Series: moveSeries,
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

	names := []string{"m-LIGHT", "PHT", "DST"}
	lookupSeries := make([]Series, 3)
	moveSeries := make([]Series, 3)
	for i, n := range names {
		lookupSeries[i].Name = n
		moveSeries[i].Name = n
	}
	for _, theta := range cfg.Thetas {
		set, err := newSchemeSet(cfg, theta)
		if err != nil {
			return Table{}, Table{}, err
		}
		for i, rec := range records {
			if err := set.mlight.Insert(rec); err != nil {
				return Table{}, Table{}, fmt.Errorf("experiments: θ=%d m-LIGHT insert #%d: %w", theta, i, err)
			}
			if err := set.pht.Insert(rec); err != nil {
				return Table{}, Table{}, fmt.Errorf("experiments: θ=%d PHT insert #%d: %w", theta, i, err)
			}
			if err := set.dst.Insert(rec); err != nil {
				return Table{}, Table{}, fmt.Errorf("experiments: θ=%d DST insert #%d: %w", theta, i, err)
			}
		}
		x := float64(theta)
		snaps := []metrics.Snapshot{set.mlight.Stats(), set.pht.Stats(), set.dst.Stats()}
		for j, snap := range snaps {
			lookupSeries[j].Points = append(lookupSeries[j].Points, Point{X: x, Y: float64(snap.DHTLookups)})
			moveSeries[j].Points = append(moveSeries[j].Points, Point{X: x, Y: float64(snap.RecordsMoved)})
		}
	}
	lookups = Table{
		ID: "Fig5c", Title: "Maintenance: DHT-lookup cost vs θsplit",
		XLabel: "θsplit", YLabel: "DHT-lookups (total)",
		Series: lookupSeries,
	}
	movement = Table{
		ID: "Fig5d", Title: "Maintenance: data-movement cost vs θsplit",
		XLabel: "θsplit", YLabel: "records moved (total)",
		Series: moveSeries,
	}
	return lookups, movement, nil
}
