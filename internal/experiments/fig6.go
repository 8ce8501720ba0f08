package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/metrics"
)

// Fig6LoadBalance reproduces Figs. 6a and 6b: storage load balance of
// threshold-based versus data-aware splitting as the index grows. The
// x-axis is the tree size (number of leaf buckets); the y-axes are the
// normalised variance of per-peer storage load (6a) and the fraction of
// empty leaf buckets (6b). The paper's setting ε = 70, θsplit = 100 makes
// the two trees comparable in size.
func Fig6LoadBalance(cfg Config) (variance, empties Table, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Table{}, Table{}, err
	}
	records := cfg.records()

	type strategy struct {
		name  string
		ix    *core.Index
		local *dht.Local
		vPts  []Point
		ePts  []Point
	}
	thrLocal := dht.MustNewLocal(cfg.Peers)
	thrIx, err := core.New(thrLocal, cfg.tuning(cfg.ThetaSplit))
	if err != nil {
		return Table{}, Table{}, err
	}
	awareLocal := dht.MustNewLocal(cfg.Peers)
	aware := cfg.tuning(cfg.ThetaSplit)
	aware.Strategy = core.SplitDataAware
	aware.Epsilon = cfg.Epsilon
	aware.MergeThreshold = cfg.Epsilon / 2
	awareIx, err := core.New(awareLocal, aware)
	if err != nil {
		return Table{}, Table{}, err
	}
	strategies := []*strategy{
		{name: "threshold-based splitting", ix: thrIx, local: thrLocal},
		{name: "data-aware splitting", ix: awareIx, local: awareLocal},
	}

	marks := checkpointSizes(len(records), max(cfg.Checkpoints, 6))
	next := 0
	for i, rec := range records {
		for _, s := range strategies {
			if err := s.ix.Insert(rec); err != nil {
				return Table{}, Table{}, fmt.Errorf("experiments: %s insert #%d: %w", s.name, i, err)
			}
		}
		if next < len(marks) && i+1 == marks[next] {
			next++
			for _, s := range strategies {
				treeSize, emptyFrac, loadVar, err := measureBalance(s.ix, s.local)
				if err != nil {
					return Table{}, Table{}, err
				}
				s.vPts = append(s.vPts, Point{X: float64(treeSize), Y: loadVar})
				s.ePts = append(s.ePts, Point{X: float64(treeSize), Y: emptyFrac})
			}
		}
	}
	variance = Table{
		ID: "Fig6a", Title: "Storage load balance: per-peer load variance vs tree size",
		XLabel: "tree size (leaf buckets)", YLabel: "normalised variance of peer load",
		Series: []Series{
			{Name: strategies[0].name, Points: strategies[0].vPts},
			{Name: strategies[1].name, Points: strategies[1].vPts},
		},
	}
	empties = Table{
		ID: "Fig6b", Title: "Storage load balance: empty buckets vs tree size",
		XLabel: "tree size (leaf buckets)", YLabel: "fraction of empty buckets",
		Series: []Series{
			{Name: strategies[0].name, Points: strategies[0].ePts},
			{Name: strategies[1].name, Points: strategies[1].ePts},
		},
	}
	return variance, empties, nil
}

// measureBalance inspects one index: leaf-bucket count, empty-bucket
// fraction, and the normalised variance (squared coefficient of variation)
// of per-peer stored records.
func measureBalance(ix *core.Index, local *dht.Local) (treeSize int, emptyFrac, loadVariance float64, err error) {
	buckets, err := ix.Buckets()
	if err != nil {
		return 0, 0, 0, err
	}
	peers := local.Peers()
	load := make(map[string]float64, len(peers))
	empty := 0
	for _, b := range buckets {
		if b.Load() == 0 {
			empty++
		}
		owner, err := local.Owner(b.Key(ix.Dims()))
		if err != nil {
			return 0, 0, 0, err
		}
		load[owner] += float64(b.Load())
	}
	perPeer := make([]float64, 0, len(peers))
	for _, p := range peers {
		perPeer = append(perPeer, load[p])
	}
	treeSize = len(buckets)
	if treeSize > 0 {
		emptyFrac = float64(empty) / float64(treeSize)
	}
	loadVariance = metrics.NormalizedVariance(perPeer)
	return treeSize, emptyFrac, loadVariance, nil
}
