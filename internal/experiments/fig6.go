package experiments

import (
	"fmt"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/metrics"
)

// balanceTree is one splitting strategy's index, the store it lives in, and
// its two Fig. 6 curves.
type balanceTree struct {
	ix                *core.Index
	local             *dht.Local
	variance, empties Series
}

// growBalanceTrees loads the dataset into one index per splitting strategy
// — threshold-based, then data-aware — sampling both at every checkpoint.
func growBalanceTrees(cfg Config) ([]*balanceTree, error) {
	aware := cfg.tuning(cfg.ThetaSplit)
	aware.Strategy = core.SplitDataAware
	aware.Epsilon = cfg.Epsilon
	aware.MergeThreshold = cfg.Epsilon / 2
	trees := []*balanceTree{
		{variance: Series{Name: "threshold-based splitting"}},
		{variance: Series{Name: "data-aware splitting"}},
	}
	for i, t := range []index.Tuning{cfg.tuning(cfg.ThetaSplit), aware} {
		tree := trees[i]
		tree.empties.Name = tree.variance.Name
		tree.local = dht.MustNewLocal(cfg.Peers)
		var err error
		if tree.ix, err = core.New(tree.local, t); err != nil {
			return nil, err
		}
	}

	records := cfg.records()
	marks := checkpointSizes(len(records), max(cfg.Checkpoints, 6))
	for i, rec := range records {
		for _, tree := range trees {
			if err := tree.ix.Insert(rec); err != nil {
				return nil, fmt.Errorf("experiments: %s insert #%d: %w", tree.variance.Name, i, err)
			}
		}
		if len(marks) == 0 || i+1 != marks[0] {
			continue
		}
		marks = marks[1:]
		for _, tree := range trees {
			treeSize, emptyFrac, loadVar, err := measureBalance(tree.ix, tree.local)
			if err != nil {
				return nil, err
			}
			tree.variance.Points = append(tree.variance.Points, Point{X: float64(treeSize), Y: loadVar})
			tree.empties.Points = append(tree.empties.Points, Point{X: float64(treeSize), Y: emptyFrac})
		}
	}
	return trees, nil
}

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
	trees, err := growBalanceTrees(cfg)
	if err != nil {
		return Table{}, Table{}, err
	}
	variance = Table{
		ID: "Fig6a", Title: "Storage load balance: per-peer load variance vs tree size",
		XLabel: "tree size (leaf buckets)", YLabel: "normalised variance of peer load",
		Series: []Series{trees[0].variance, trees[1].variance},
	}
	empties = Table{
		ID: "Fig6b", Title: "Storage load balance: empty buckets vs tree size",
		XLabel: "tree size (leaf buckets)", YLabel: "fraction of empty buckets",
		Series: []Series{trees[0].empties, trees[1].empties},
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
