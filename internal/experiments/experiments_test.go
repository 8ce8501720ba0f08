package experiments

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/metrics"
)

// smallCfg keeps test runs fast while preserving the paper's shapes.
func smallCfg() Config {
	return Config{
		DataSize:       6000,
		Peers:          64,
		ThetaSplit:     50,
		Epsilon:        35,
		MaxDepth:       20,
		Seed:           1,
		Checkpoints:    4,
		Thetas:         []int{25, 50, 100},
		Spans:          []float64{0.05, 0.2, 0.4},
		QueriesPerSpan: 15,
		Lookaheads:     []int{2, 4},
	}
}

func lastY(t *testing.T, tbl Table, name string) float64 {
	t.Helper()
	s, ok := tbl.SeriesByName(name)
	if !ok {
		t.Fatalf("%s: series %q missing", tbl.ID, name)
	}
	p, ok := s.Last()
	if !ok {
		t.Fatalf("%s: series %q empty", tbl.ID, name)
	}
	return p.Y
}

func TestFig5DataSizeShapes(t *testing.T) {
	lookups, movement, err := Fig5DataSize(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// All series grow monotonically (cumulative costs).
	for _, tbl := range []Table{lookups, movement} {
		for _, s := range tbl.Series {
			if len(s.Points) != 4 {
				t.Fatalf("%s %s: %d checkpoints", tbl.ID, s.Name, len(s.Points))
			}
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Y < s.Points[i-1].Y {
					t.Errorf("%s %s not monotone at %d", tbl.ID, s.Name, i)
				}
			}
		}
	}
	// Ordering: m-LIGHT cheapest, DST worst; DST's movement an order of
	// magnitude above m-LIGHT's (§7.2).
	mlL, phtL, dstL := lastY(t, lookups, "m-LIGHT"), lastY(t, lookups, "PHT"), lastY(t, lookups, "DST")
	if !(mlL < phtL && phtL < dstL) {
		t.Errorf("lookup ordering wrong: m-LIGHT=%v PHT=%v DST=%v", mlL, phtL, dstL)
	}
	mlM, phtM, dstM := lastY(t, movement, "m-LIGHT"), lastY(t, movement, "PHT"), lastY(t, movement, "DST")
	if !(mlM < phtM && phtM < dstM) {
		t.Errorf("movement ordering wrong: m-LIGHT=%v PHT=%v DST=%v", mlM, phtM, dstM)
	}
	// At this reduced scale (6k records, D=20) the replication gap is ~4×;
	// it widens to ~an order of magnitude at the paper's scale because DST
	// stores at every unsaturated level of a deeper tree.
	if dstM < 4*mlM {
		t.Errorf("DST movement %v not ≫ m-LIGHT %v", dstM, mlM)
	}
	if out := lookups.Format(); !strings.Contains(out, "Fig5a") || !strings.Contains(out, "m-LIGHT") {
		t.Errorf("Format output malformed:\n%s", out)
	}
	if csv := movement.CSV(); !strings.HasPrefix(csv, "x,") {
		t.Errorf("CSV output malformed:\n%s", csv)
	}
}

func TestFig5ThetaShapes(t *testing.T) {
	lookups, movement, err := Fig5Theta(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// m-LIGHT and PHT are roughly insensitive to θ (within 2×); DST's
	// movement grows with θ (less saturation ⇒ more replication).
	for _, name := range []string{"m-LIGHT", "PHT"} {
		s, _ := lookups.SeriesByName(name)
		minY, maxY := s.Points[0].Y, s.Points[0].Y
		for _, p := range s.Points {
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		if maxY > 2*minY {
			t.Errorf("%s lookups vary too much with θ: %v..%v", name, minY, maxY)
		}
	}
	dst, _ := movement.SeriesByName("DST")
	if dst.Points[0].Y >= dst.Points[len(dst.Points)-1].Y {
		t.Errorf("DST movement should grow with θ: %v", dst.Points)
	}
}

func TestFig6Shapes(t *testing.T) {
	variance, empties, err := Fig6LoadBalance(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	thrE := lastY(t, empties, "threshold-based splitting")
	awE := lastY(t, empties, "data-aware splitting")
	if awE > thrE {
		t.Errorf("data-aware empties %v exceed threshold %v", awE, thrE)
	}
	for _, tbl := range []Table{variance, empties} {
		for _, s := range tbl.Series {
			if len(s.Points) < 4 {
				t.Fatalf("%s %s: %d checkpoints", tbl.ID, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if p.Y < 0 || p.X <= 0 {
					t.Errorf("%s %s: bad point %+v", tbl.ID, s.Name, p)
				}
			}
		}
	}
	// Variance is a ratio; empty fraction ≤ 1.
	for _, s := range empties.Series {
		for _, p := range s.Points {
			if p.Y > 1 {
				t.Errorf("empty fraction > 1: %+v", p)
			}
		}
	}
}

// TestFig6CensusMatchesReference holds Fig. 6's points to the arithmetic
// that computed them before Index.Census did (measureBalance, kept below),
// bit for bit, at two checkpoints: a tree grown to a checkpoint is the full
// run's tree there, since the census reads without writing.
func TestFig6CensusMatchesReference(t *testing.T) {
	cfg := smallCfg().withDefaults()
	cfg.Records = cfg.records()
	full, err := growBalanceTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peers := dht.MustNewLocal(cfg.Peers).Peers()
	marks := checkpointSizes(len(cfg.Records), max(cfg.Checkpoints, 6))
	for _, at := range []int{1, len(marks) - 1} {
		part := cfg
		part.Records = cfg.Records[:marks[at]]
		trees, err := growBalanceTrees(part)
		if err != nil {
			t.Fatal(err)
		}
		for i, tree := range trees {
			size, empty, variance := measureBalance(t, tree.ix, tree.owner, peers)
			want := [3]uint64{math.Float64bits(float64(size)), math.Float64bits(empty), math.Float64bits(variance)}
			v, e := full[i].variance.Points[at], full[i].empties.Points[at]
			got := [3]uint64{math.Float64bits(v.X), math.Float64bits(e.Y), math.Float64bits(v.Y)}
			if got != want || e.X != v.X {
				t.Errorf("%s at %d records: census (%v, %v, %v), reference (%d, %v, %v)",
					tree.variance.Name, marks[at], v.X, e.Y, v.Y, size, empty, variance)
			}
		}
	}
}

// measureBalance is Fig. 6's measurement as it was computed before the
// census: leaf count, empty-leaf fraction, and the normalised variance of
// per-peer stored records.
func measureBalance(t *testing.T, ix *core.Index, owner func(dht.Key) (string, error), peers []string) (treeSize int, emptyFrac, loadVariance float64) {
	t.Helper()
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	load := make(map[string]float64, len(peers))
	empty := 0
	for _, b := range buckets {
		if b.Load() == 0 {
			empty++
		}
		p, err := owner(b.Key(ix.Dims()))
		if err != nil {
			t.Fatal(err)
		}
		load[p] += float64(b.Load())
	}
	perPeer := make([]float64, 0, len(peers))
	for _, p := range peers {
		perPeer = append(perPeer, load[p])
	}
	treeSize = len(buckets)
	if treeSize > 0 {
		emptyFrac = float64(empty) / float64(treeSize)
	}
	return treeSize, emptyFrac, metrics.NormalizedVariance(perPeer)
}

func TestFig7Shapes(t *testing.T) {
	bandwidth, latency, err := Fig7RangeQuery(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	basicBW := lastY(t, bandwidth, "m-LIGHT (basic)")
	p2BW := lastY(t, bandwidth, "m-LIGHT (parallel-2)")
	p4BW := lastY(t, bandwidth, "m-LIGHT (parallel-4)")
	dstBW := lastY(t, bandwidth, "DST")
	phtBW := lastY(t, bandwidth, "PHT")
	// Bandwidth ordering at the largest span: basic cheapest of the
	// m-LIGHT family; DST far above everyone (§7.4).
	if !(basicBW <= p2BW && p2BW <= p4BW) {
		t.Errorf("m-LIGHT bandwidth ordering wrong: basic=%v p2=%v p4=%v", basicBW, p2BW, p4BW)
	}
	if basicBW > phtBW {
		t.Errorf("m-LIGHT basic bandwidth %v above PHT %v", basicBW, phtBW)
	}
	if dstBW < 5*basicBW {
		t.Errorf("DST bandwidth %v not ≫ m-LIGHT basic %v", dstBW, basicBW)
	}
	// Latency ordering: parallel-4 ≤ parallel-2 ≤ basic; PHT ≥ parallel
	// variants.
	basicLat := lastY(t, latency, "m-LIGHT (basic)")
	p2Lat := lastY(t, latency, "m-LIGHT (parallel-2)")
	p4Lat := lastY(t, latency, "m-LIGHT (parallel-4)")
	if !(p4Lat <= p2Lat && p2Lat <= basicLat) {
		t.Errorf("latency ordering wrong: basic=%v p2=%v p4=%v", basicLat, p2Lat, p4Lat)
	}
	// DST latency grows with span (saturation forces descents).
	dstLat, _ := latency.SeriesByName("DST")
	if dstLat.Points[len(dstLat.Points)-1].Y < dstLat.Points[0].Y {
		t.Errorf("DST latency should grow with span: %v", dstLat.Points)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dims: -1},
		{Peers: -1},
		{ThetaSplit: 1},
		{Epsilon: -1},
	}
	for i, c := range bad {
		if _, _, err := Fig5DataSize(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", Points: []Point{{1, 2}, {2, 4}}}},
	}
	if _, ok := tbl.SeriesByName("missing"); ok {
		t.Error("found missing series")
	}
	s, _ := tbl.SeriesByName("a")
	if s.MeanY() != 3 {
		t.Errorf("MeanY = %v", s.MeanY())
	}
	var emptySeries Series
	if _, ok := emptySeries.Last(); ok {
		t.Error("Last on empty series")
	}
	if emptySeries.MeanY() != 0 {
		t.Error("MeanY on empty series")
	}
}

func TestAblations(t *testing.T) {
	cfg := smallCfg()
	cfg.DataSize = 3000
	cfg.QueriesPerSpan = 8
	tables, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("%d ablation tables, want 5", len(tables))
	}
	byID := map[string]Table{}
	for _, tbl := range tables {
		byID[tbl.ID] = tbl
	}
	// Lookahead: latency non-increasing, bandwidth non-decreasing in h.
	la := byID["AblLookahead"]
	bw, _ := la.SeriesByName("DHT-lookups per query")
	lat, _ := la.SeriesByName("rounds per query")
	for i := 1; i < len(lat.Points); i++ {
		if lat.Points[i].Y > lat.Points[i-1].Y+1e-9 {
			t.Errorf("lookahead latency increased at h=%v: %v > %v",
				lat.Points[i].X, lat.Points[i].Y, lat.Points[i-1].Y)
		}
		if bw.Points[i].Y < bw.Points[i-1].Y-1e-9 {
			t.Errorf("lookahead bandwidth decreased at h=%v", bw.Points[i].X)
		}
	}
	// Split cost: m-LIGHT moves fewer records per split than PHT at every θ.
	sc := byID["AblSplitCost"]
	ml, _ := sc.SeriesByName("m-LIGHT moved per split")
	ph, _ := sc.SeriesByName("PHT moved per split")
	if len(ml.Points) == 0 || len(ph.Points) == 0 {
		t.Fatal("split-cost series empty")
	}
	for i := range ml.Points {
		if i < len(ph.Points) && ml.Points[i].Y >= ph.Points[i].Y {
			t.Errorf("θ=%v: m-LIGHT per-split movement %v not below PHT %v",
				ml.Points[i].X, ml.Points[i].Y, ph.Points[i].Y)
		}
	}
	// Overlay: route length grows with ring size for both overlays.
	ov := byID["AblOverlay"]
	for _, s := range ov.Series {
		if len(s.Points) < 2 {
			t.Fatalf("overlay series %q too short", s.Name)
		}
		if s.Points[len(s.Points)-1].Y <= s.Points[0].Y {
			t.Errorf("%s: route length did not grow with peers: %v", s.Name, s.Points)
		}
	}
	// Bulk load is far cheaper than incremental at every size.
	bl := byID["AblBulkLoad"]
	blBulk, _ := bl.SeriesByName("bulk-load DHT-lookups")
	blIncr, _ := bl.SeriesByName("incremental DHT-lookups")
	for i := range blBulk.Points {
		if blBulk.Points[i].Y*2 > blIncr.Points[i].Y {
			t.Errorf("bulk load %v not ≪ incremental %v at n=%v",
				blBulk.Points[i].Y, blIncr.Points[i].Y, blBulk.Points[i].X)
		}
	}
	// Dims: all points present and positive.
	ad := byID["AblDims"]
	for _, s := range ad.Series {
		if len(s.Points) != 5 {
			t.Fatalf("dims series %q has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s: non-positive cost at m=%v", s.Name, p.X)
			}
		}
	}
}

// TestAblationOverlayReproducible: the route-length table is a paper-side
// number, so two runs of the same configuration must agree to the last bit —
// on every overlay, however the scheduler interleaves goroutines.
func TestAblationOverlayReproducible(t *testing.T) {
	cfg := smallCfg().withDefaults()
	cfg.DataSize = 600
	first, err := ablationOverlay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ablationOverlay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two runs differ:\n%+v\n%+v", first.Series, second.Series)
	}
}

func TestExtensions(t *testing.T) {
	cfg := smallCfg()
	cfg.DataSize = 3000
	cfg.QueriesPerSpan = 8
	cfg.Spans = []float64{0.1, 0.3}
	tables, err := Extensions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d extension tables, want 2", len(tables))
	}
	byID := map[string]Table{}
	for _, tbl := range tables {
		byID[tbl.ID] = tbl
	}
	ql := byID["ExtQueryLoad"]
	if len(ql.Series) != 3 {
		t.Fatalf("query-load series = %d", len(ql.Series))
	}
	for _, s := range ql.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("%s: negative skew %v", s.Name, p)
			}
		}
	}
	ca := byID["ExtChurnAvailability"]
	noRepl, ok1 := ca.SeriesByName("no replication")
	repl, ok2 := ca.SeriesByName("replication r=3")
	if !ok1 || !ok2 {
		t.Fatalf("availability series missing: %v", ca.Series)
	}
	// Both start fully available.
	if noRepl.Points[0].Y != 1 || repl.Points[0].Y != 1 {
		t.Errorf("availability before crashes: %v / %v", noRepl.Points[0].Y, repl.Points[0].Y)
	}
	// Replication dominates no-replication at every crash count.
	for i := range repl.Points {
		if repl.Points[i].Y < noRepl.Points[i].Y {
			t.Errorf("crashed=%v: replicated availability %v below unreplicated %v",
				repl.Points[i].X, repl.Points[i].Y, noRepl.Points[i].Y)
		}
	}
	// Replication keeps availability at 1 throughout (sequential crashes).
	if last, _ := repl.Last(); last.Y < 1 {
		t.Errorf("replicated ring lost availability: %v", repl.Points)
	}
	// Without replication, availability degrades by the end.
	if last, _ := noRepl.Last(); last.Y >= 1 {
		t.Errorf("unreplicated ring suspiciously lossless: %v", noRepl.Points)
	}
}

// TestSections drives the table the way cmd/mlight-bench does: every entry
// runs at its quick preset under a tiny explicit configuration and reports
// something, and no two sections claim one table ID (the ID names the CSV).
func TestSections(t *testing.T) {
	tiny := Config{DataSize: 200, Peers: 16, ThetaSplit: 20, Epsilon: 14, MaxDepth: 16, QueriesPerSpan: 3}
	sleeps := []string{"concurrency", "lookup", "ingest"} // their RPCs pay real delays
	owner := map[string]string{}
	for _, s := range Sections {
		t.Run(s.Name, func(t *testing.T) {
			if testing.Short() && slices.Contains(sleeps, s.Name) {
				t.Skip("wall-clock section sleeps on real network delays")
			}
			rep, err := s.Run(tiny, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Tables) == 0 && rep.Summary == nil && len(rep.Lines) == 0 {
				t.Error("empty report")
			}
			if s.InAll && len(rep.Tables) == 0 {
				t.Error("a section of \"all\" reported no table")
			}
			for _, tbl := range rep.Tables {
				if other, taken := owner[tbl.ID]; taken {
					t.Errorf("table %s is reported by both %s and %s", tbl.ID, other, s.Name)
				}
				owner[tbl.ID] = s.Name
				if len(tbl.Series) == 0 {
					t.Errorf("table %s has no series", tbl.ID)
				}
			}
		})
	}
}

func TestSelect(t *testing.T) {
	names := func(sections []Section) (out []string) {
		for _, s := range sections {
			out = append(out, s.Name)
		}
		return out
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sections {
		if slices.Contains(names(all), s.Name) != s.InAll {
			t.Errorf("%s: in \"all\" = %v, table says %v", s.Name, !s.InAll, s.InAll)
		}
	}
	got, err := Select(" Trace,fig5 ,all")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(names(all), "trace"); !slices.Equal(names(got), want) {
		t.Errorf("Select ran %v, want table order %v", names(got), want)
	}
	// An unknown name fails, listing exactly what the table holds.
	_, err = Select("fig6,bogus")
	want := `unknown section "bogus" (valid: all`
	for _, s := range Sections {
		want += "," + s.Name
	}
	if err == nil || err.Error() != want+")" {
		t.Errorf("got %v, want %s)", err, want)
	}
	for _, s := range Sections {
		if !strings.Contains(Usage(), s.Name) {
			t.Errorf("Usage() omits %s: %s", s.Name, Usage())
		}
	}
}

// TestFigureTreesHoldInvariants checks the trees behind Figs. 5–7 against
// the paper's invariants: the m-LIGHT index the three-scheme comparison
// loads (Figs. 5 and 7 build it the same way) and both of Fig. 6's.
func TestFigureTreesHoldInvariants(t *testing.T) {
	cfg := smallCfg().withDefaults()
	ml, schemes, err := newSchemes(cfg, cfg.ThetaSplit)
	if err != nil {
		t.Fatal(err)
	}
	if err := insertAll(schemes, cfg.records()); err != nil {
		t.Fatal(err)
	}
	if err := core.CheckInvariants(ml); err != nil {
		t.Errorf("Figs. 5/7: %v", err)
	}
	trees, err := growBalanceTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range trees {
		if err := core.CheckInvariants(tree.ix); err != nil {
			t.Errorf("Fig. 6, %s: %v", tree.variance.Name, err)
		}
	}
}
