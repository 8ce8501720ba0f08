package kdtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"mlight/internal/bitlabel"
	"mlight/internal/dht/dhttest"
	"mlight/internal/spatial"
)

// ThresholdSplit is Threshold's leaves with their records, the form the
// tests compare.
func ThresholdSplit(c Cell, m, thetaSplit, maxDepth int) ([]Cell, error) {
	f, err := Threshold(c, m, thetaSplit, maxDepth)
	if err != nil {
		return nil, err
	}
	return f.Cells(), nil
}

// OptimalSplit is Optimal's leaves with their records.
func OptimalSplit(c Cell, m, epsilon, maxDepth int) (leaves []Cell, improved bool, err error) {
	f, improved, err := Optimal(c, m, epsilon, maxDepth)
	if err != nil {
		return nil, false, err
	}
	return f.Cells(), improved, nil
}

func rootCell(m int, recs []spatial.Record) Cell {
	return Cell{
		Label:   bitlabel.Root(m),
		Region:  spatial.UnitCube(m),
		Records: recs,
	}
}

func recs(points ...spatial.Point) []spatial.Record {
	out := make([]spatial.Record, len(points))
	for i, p := range points {
		out[i] = spatial.Record{Key: p}
	}
	return out
}

func randomRecords(rng *rand.Rand, m, n int) []spatial.Record {
	out := make([]spatial.Record, n)
	for i := range out {
		p := make(spatial.Point, m)
		for d := range p {
			p[d] = rng.Float64()
		}
		out[i] = spatial.Record{Key: p}
	}
	return out
}

// TestSplitOnceKeepsOrderAndClips: the midpoint itself goes up (half-open
// cells), each child holds its records in input order, each child is a
// clipped view, and the input slice is left as it was.
func TestSplitOnceKeepsOrderAndClips(t *testing.T) {
	rs := recs(spatial.Point{0.7}, spatial.Point{0.2}, spatial.Point{0.5}, spatial.Point{0.49})
	in := append([]spatial.Record(nil), rs...)
	lower, upper, err := SplitOnce(rootCell(1, rs), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]float64{{0.2, 0.49}, {0.7, 0.5}} {
		got := []Cell{lower, upper}[i].Records
		if len(got) != len(want) {
			t.Fatalf("child %d holds %d records, want %d", i, len(got), len(want))
		}
		for j, r := range got {
			if r.Key[0] != want[j] {
				t.Fatalf("child %d record %d is %v, want %v", i, j, r.Key[0], want[j])
			}
		}
	}
	if cap(lower.Records) != lower.Load() || cap(upper.Records) != upper.Load() {
		t.Errorf("children not clipped: cap %d/%d, len %d/%d", cap(lower.Records), cap(upper.Records), lower.Load(), upper.Load())
	}
	for i := range rs {
		if rs[i].Key[0] != in[i].Key[0] {
			t.Fatalf("SplitOnce reordered its input: %v, was %v", rs, in)
		}
	}
}

func TestSplitOnce(t *testing.T) {
	m := 2
	c := rootCell(m, recs(spatial.Point{0.1, 0.9}, spatial.Point{0.9, 0.1}))
	left, right, err := SplitOnce(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := left.Label.Pretty(m); got != "#0" {
		t.Errorf("left label = %s", got)
	}
	if got := right.Label.Pretty(m); got != "#1" {
		t.Errorf("right label = %s", got)
	}
	if left.Region.Hi[0] != 0.5 || right.Region.Lo[0] != 0.5 {
		t.Errorf("regions: %v / %v", left.Region, right.Region)
	}
	if left.Load() != 1 || right.Load() != 1 {
		t.Errorf("loads: %d / %d", left.Load(), right.Load())
	}
	// Second-level split goes along dim 1.
	ll, lr, err := SplitOnce(left, m)
	if err != nil {
		t.Fatal(err)
	}
	if ll.Region.Hi[1] != 0.5 || lr.Region.Lo[1] != 0.5 {
		t.Errorf("second-level regions: %v / %v", ll.Region, lr.Region)
	}
}

func TestSplitOnceAtMaxDepth(t *testing.T) {
	c := Cell{Label: bitlabel.New(0, bitlabel.MaxLen), Region: spatial.UnitCube(1)}
	if _, _, err := SplitOnce(c, 1); err == nil {
		t.Error("SplitOnce at max depth succeeded")
	}
}

func TestThresholdSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := 2
	c := rootCell(m, randomRecords(rng, m, 500))
	cells, err := ThresholdSplit(c, m, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cell := range cells {
		if cell.Load() > 20 {
			t.Errorf("cell %v load %d exceeds threshold", cell.Label, cell.Load())
		}
		total += cell.Load()
	}
	if total != 500 {
		t.Errorf("records lost: %d of 500", total)
	}
	assertTiling(t, cells, m)
	// Invalid threshold.
	if _, err := ThresholdSplit(c, m, 0, 10); err == nil {
		t.Error("thetaSplit=0 accepted")
	}
	// Depth cap stops recursion even when overfull.
	dup := rootCell(1, recs(spatial.Point{0.3}, spatial.Point{0.3}, spatial.Point{0.3}))
	capped, err := ThresholdSplit(dup, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, cell := range capped {
		sum += cell.Load()
	}
	if sum != 3 {
		t.Errorf("depth-capped split lost records: %d", sum)
	}
}

// assertTiling checks the cells form an antichain of labels whose regions
// are pairwise disjoint, i.e. a valid kd-subtree frontier.
func assertTiling(t *testing.T, cells []Cell, m int) {
	t.Helper()
	for i := range cells {
		for j := range cells {
			if i == j {
				continue
			}
			if cells[i].Label.IsPrefixOf(cells[j].Label) {
				t.Fatalf("cell %v is ancestor of %v", cells[i].Label, cells[j].Label)
			}
		}
	}
	// Every cell's region must match its label.
	for _, c := range cells {
		g, err := spatial.RegionOf(c.Label, m)
		if err != nil {
			t.Fatal(err)
		}
		if g.String() != c.Region.String() {
			t.Fatalf("cell %v region %v, label says %v", c.Label, c.Region, g)
		}
		for _, r := range c.Records {
			if !c.Region.Contains(r.Key) {
				t.Fatalf("record %v outside its cell %v", r.Key, c.Label)
			}
		}
	}
}

// TestOptimalSplitPaperExample reproduces Fig. 3 (ε = 2): four points
// arranged two per quarter-cell with an empty half have split cost equal to
// the unsplit cost (4), so no split happens; a fifth point landing in the
// empty half drops the split cost to 1 and triggers a 3-cell split with
// loads {2, 2, 1}.
func TestOptimalSplitPaperExample(t *testing.T) {
	m := 2
	before := recs(
		spatial.Point{0.1, 0.8}, spatial.Point{0.2, 0.9}, // upper quarter of the left half
		spatial.Point{0.3, 0.2}, spatial.Point{0.4, 0.3}, // lower quarter of the left half
	)
	cells, improved, err := OptimalSplit(rootCell(m, before), m, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if improved || len(cells) != 1 {
		t.Fatalf("before insertion: improved=%v cells=%d, want no split", improved, len(cells))
	}

	after := append(append([]spatial.Record{}, before...),
		spatial.Record{Key: spatial.Point{0.7, 0.2}}) // the empty right half
	cells, improved, err = OptimalSplit(rootCell(m, after), m, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !improved {
		t.Fatal("after insertion: split not triggered")
	}
	if len(cells) != 3 {
		t.Fatalf("after insertion: %d cells, want 3", len(cells))
	}
	loads := map[int]int{}
	var cost int64
	for _, c := range cells {
		loads[c.Load()]++
		cost += localCost(c.Load(), 2)
	}
	if loads[2] != 2 || loads[1] != 1 {
		t.Errorf("loads = %v, want {2:2, 1:1}", loads)
	}
	if cost != 1 {
		t.Errorf("total cost = %d, want 1", cost)
	}
	assertTiling(t, cells, m)
}

func TestOptimalSplitNoSplitWhenSmall(t *testing.T) {
	m := 2
	c := rootCell(m, recs(spatial.Point{0.1, 0.1}))
	cells, improved, err := OptimalSplit(c, m, 2, 30)
	if err != nil || improved || len(cells) != 1 {
		t.Fatalf("OptimalSplit on tiny bucket: %v/%v/%v", cells, improved, err)
	}
	if _, _, err := OptimalSplit(c, m, 0, 30); err == nil {
		t.Error("epsilon=0 accepted")
	}
}

// TestOptimalSplitInvariants: on random data the result preserves records,
// tiles the cell, achieves cost Σ(l-ε)² no worse than the unsplit cost and
// no worse than the threshold-split frontier, and improved is consistent.
func TestOptimalSplitInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(120)
		epsilon := 1 + rng.Intn(20)
		c := rootCell(m, randomRecords(rng, m, n))
		cells, improved, err := OptimalSplit(c, m, epsilon, 30)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		var cost int64
		for _, cell := range cells {
			total += cell.Load()
			cost += localCost(cell.Load(), epsilon)
		}
		if total != n {
			t.Fatalf("records lost: %d of %d", total, n)
		}
		assertTiling(t, cells, m)
		unsplit := localCost(n, epsilon)
		if improved != (cost < unsplit) {
			t.Fatalf("improved=%v but cost=%d vs unsplit=%d", improved, cost, unsplit)
		}
		if !improved && len(cells) != 1 {
			t.Fatalf("no improvement but %d cells", len(cells))
		}
		// The optimum can't be beaten by the threshold frontier at θ=ε.
		frontier, err := ThresholdSplit(c, m, epsilon, 30)
		if err != nil {
			t.Fatal(err)
		}
		var frontierCost int64
		for _, cell := range frontier {
			frontierCost += localCost(cell.Load(), epsilon)
		}
		if cost > frontierCost && cost > unsplit {
			t.Fatalf("optimal cost %d beaten by frontier %d (unsplit %d)", cost, frontierCost, unsplit)
		}
		if cost > unsplit {
			t.Fatalf("optimal cost %d worse than not splitting %d", cost, unsplit)
		}
	}
}

// TestOptimalSplitBeatsThresholdVariance: the headline of §4.2 — for
// clustered data the data-aware frontier has load variance no worse than
// the θ-threshold frontier at matched expected load.
func TestOptimalSplitBeatsThresholdVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := 2
	// Clustered data: one dense blob plus sparse noise.
	var rs []spatial.Record
	for i := 0; i < 300; i++ {
		rs = append(rs, spatial.Record{Key: spatial.Point{
			clamp01(0.2 + rng.NormFloat64()*0.03),
			clamp01(0.7 + rng.NormFloat64()*0.03),
		}})
	}
	for i := 0; i < 30; i++ {
		rs = append(rs, spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}})
	}
	c := rootCell(m, rs)
	optimal, _, err := OptimalSplit(c, m, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := ThresholdSplit(c, m, 28, 40) // roughly matched leaf count
	if err != nil {
		t.Fatal(err)
	}
	if deviation(optimal, 20) > deviation(frontier, 20) {
		t.Errorf("data-aware deviation %d worse than threshold %d",
			deviation(optimal, 20), deviation(frontier, 20))
	}
}

func deviation(cells []Cell, epsilon int) int64 {
	var s int64
	for _, c := range cells {
		s += localCost(c.Load(), epsilon)
	}
	return s
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// The append-based split of the first implementation, kept verbatim as the
// reference TestSplitMatchesAppendReference holds the splits to: every level
// appends each record into a fresh half, deciding it by the midpoint
// comparison itself.

func oldPartitionRecords(records []spatial.Record, g spatial.Region, dim int) (lower, upper []spatial.Record) {
	mid := (g.Lo[dim] + g.Hi[dim]) / 2
	for _, r := range records {
		if r.Key[dim] < mid {
			lower = append(lower, r)
		} else {
			upper = append(upper, r)
		}
	}
	return lower, upper
}

func oldSplitOnce(c Cell, m int) (left, right Cell, err error) {
	if c.Label.Len() >= bitlabel.MaxLen {
		return Cell{}, Cell{}, fmt.Errorf("kdtree: cell %v at maximum depth: %w", c.Label, bitlabel.ErrTooLong)
	}
	dim := spatial.SplitDim(c.Label.Len()-(m+1), m)
	lowRegion, highRegion := c.Region.Halves(dim)
	lowRecs, highRecs := oldPartitionRecords(c.Records, c.Region, dim)
	left = Cell{Label: c.Label.MustAppend(0), Region: lowRegion, Records: lowRecs}
	right = Cell{Label: c.Label.MustAppend(1), Region: highRegion, Records: highRecs}
	return left, right, nil
}

func oldThresholdSplit(c Cell, m, thetaSplit, maxDepth int) ([]Cell, error) {
	if thetaSplit < 1 {
		return nil, fmt.Errorf("kdtree: thetaSplit must be positive, got %d", thetaSplit)
	}
	if c.Load() <= thetaSplit || maxDepth <= 0 || c.Label.Len() >= bitlabel.MaxLen {
		return []Cell{c}, nil
	}
	left, right, err := oldSplitOnce(c, m)
	if err != nil {
		return nil, err
	}
	lcells, err := oldThresholdSplit(left, m, thetaSplit, maxDepth-1)
	if err != nil {
		return nil, err
	}
	rcells, err := oldThresholdSplit(right, m, thetaSplit, maxDepth-1)
	if err != nil {
		return nil, err
	}
	return append(lcells, rcells...), nil
}

func oldOptimalSplit(c Cell, m, epsilon, maxDepth int) (leaves []Cell, improved bool, err error) {
	if epsilon < 1 {
		return nil, false, fmt.Errorf("kdtree: epsilon must be positive, got %d", epsilon)
	}
	cost, cells, err := oldOptimalSplitRec(c, m, epsilon, maxDepth)
	if err != nil {
		return nil, false, err
	}
	if localCost(c.Load(), epsilon) <= cost {
		return []Cell{c}, false, nil
	}
	return cells, true, nil
}

func oldOptimalSplitRec(c Cell, m, epsilon, maxDepth int) (int64, []Cell, error) {
	slocal := localCost(c.Load(), epsilon)
	if c.Load() <= epsilon || maxDepth <= 0 || c.Label.Len() >= bitlabel.MaxLen {
		return slocal, []Cell{c}, nil
	}
	left, right, err := oldSplitOnce(c, m)
	if err != nil {
		return 0, nil, err
	}
	lcost, lcells, err := oldOptimalSplitRec(left, m, epsilon, maxDepth-1)
	if err != nil {
		return 0, nil, err
	}
	rcost, rcells, err := oldOptimalSplitRec(right, m, epsilon, maxDepth-1)
	if err != nil {
		return 0, nil, err
	}
	snonlocal := lcost + rcost
	if slocal <= snonlocal {
		return slocal, []Cell{c}, nil
	}
	return snonlocal, append(lcells, rcells...), nil
}

// splitCase is one input of the differential test: a start cell, its
// records, and the split parameters.
type splitCase struct {
	name          string
	label         bitlabel.Label
	m             int
	records       []spatial.Record
	bound, levels int
}

// cell returns the case's start cell over a private copy of its records, so
// that each implementation splits its own.
func (sc splitCase) cell(t *testing.T) Cell {
	t.Helper()
	g, err := spatial.RegionOf(sc.label, sc.m)
	if err != nil {
		t.Fatal(err)
	}
	return Cell{Label: sc.label, Region: g, Records: append([]spatial.Record(nil), sc.records...)}
}

// splitCases draws the differential test's inputs for dimensionality m: a
// start cell up to three levels below the root, two levels short of the
// longest label, or the root holding a few thousand records (a bulk load's
// shape) with a depth bound up to the longest label — for m = 1 deeper than
// the midpoints stay exact in float64 — and records that are uniform,
// duplicate-heavy (so the depth cap stops the descent), placed exactly on
// dyadic points of the cell, mostly coarse ones, down to the resolution of a
// float64 — midpoints at every level among them — or pinned to the cube's
// closed faces at 1.0.
func splitCases(rng *rand.Rand, m int) []splitCase {
	var out []splitCase
	for trial := 0; trial < 43; trial++ {
		label := bitlabel.Root(m)
		n, bound, levels := rng.Intn(400), rng.Intn(25)-1, rng.Intn(16)-2 // 0 and -1 are refused
		switch {
		case trial >= 40:
			n, bound, levels = 2000+rng.Intn(3000), 1+rng.Intn(64), []int{20, 40, bitlabel.MaxLen}[trial-40]
		case trial%10 == 9:
			for label.Len() < bitlabel.MaxLen-2 {
				label = label.MustAppend(1)
			}
		default:
			for d := rng.Intn(4); d > 0; d-- {
				label = label.MustAppend(byte(rng.Intn(2)))
			}
		}
		g, _ := spatial.RegionOf(label, m)
		at := func(d int, u float64) float64 { return g.Lo[d] + u*(g.Hi[d]-g.Lo[d]) }
		shapes := map[string]func(d int) float64{
			"uniform": func(d int) float64 { return at(d, rng.Float64()) },
			"duplicates": func(d int) float64 {
				return at(d, float64(rng.Intn(3))/4)
			},
			"dyadic": func(d int) float64 {
				bits := 1 + rng.Intn(1+rng.Intn(62))
				return at(d, float64(rng.Int63n(1<<bits+1))/float64(uint64(1)<<bits))
			},
			"faces": func(d int) float64 {
				if rng.Intn(2) == 0 {
					return 1
				}
				return at(d, rng.Float64())
			},
		}
		for _, shape := range []string{"uniform", "duplicates", "dyadic", "faces"} {
			recs := make([]spatial.Record, n)
			for i := range recs {
				p := make(spatial.Point, m)
				for d := range p {
					p[d] = shapes[shape](d)
				}
				recs[i] = spatial.Record{Key: p, Data: fmt.Sprintf("%s-%d", shape, i)}
			}
			out = append(out, splitCase{
				name:    fmt.Sprintf("%s/%d/%v", shape, trial, label),
				label:   label,
				m:       m,
				records: recs,
				bound:   bound,
				levels:  levels,
			})
		}
	}
	return out
}

// sameCells reports how two split results differ, or "" when the labels,
// regions, records and record order all agree.
func sameCells(got, want []Cell) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label != w.Label {
			return fmt.Sprintf("cell %d is %v, want %v", i, g.Label, w.Label)
		}
		for d := range g.Region.Lo {
			if g.Region.Lo[d] != w.Region.Lo[d] || g.Region.Hi[d] != w.Region.Hi[d] {
				return fmt.Sprintf("cell %v region %v, want %v", g.Label, g.Region, w.Region)
			}
		}
		if len(g.Records) != len(w.Records) {
			return fmt.Sprintf("cell %v holds %d records, want %d", g.Label, len(g.Records), len(w.Records))
		}
		for j := range g.Records {
			if g.Records[j].Data != w.Records[j].Data {
				return fmt.Sprintf("cell %v record %d is %s, want %s", g.Label, j, g.Records[j].Data, w.Records[j].Data)
			}
		}
	}
	return ""
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

// TestSplitMatchesAppendReference holds the splits to the append-based
// reference above, for m = 1…6 and both strategies: the same leaves,
// regions, records in the same order, improved flag and error text. A
// kept-whole cell must come back with its records in input order, and no
// split may change the records it was handed. MLIGHT_TEST_SEED moves the
// draws.
func TestSplitMatchesAppendReference(t *testing.T) {
	seed := dhttest.SeedFromEnv(1)
	for m := 1; m <= 6; m++ {
		rng := rand.New(rand.NewSource(seed*10 + int64(m)))
		for _, sc := range splitCases(rng, m) {
			matchReference(t, sc)
		}
	}
	c := rootCell(1, nil)
	c.Label = bitlabel.New(0, bitlabel.MaxLen)
	_, _, err := SplitOnce(c, 1)
	_, _, wantErr := oldSplitOnce(c, 1)
	if !sameErr(err, wantErr) {
		t.Fatalf("SplitOnce at the longest label: %v, want %v", err, wantErr)
	}
}

// matchReference runs the three splits and their references on one case.
func matchReference(t *testing.T, sc splitCase) {
	t.Helper()
	m := sc.m
	in := sc.cell(t)
	got, err := ThresholdSplit(in, m, sc.bound, sc.levels)
	want, wantErr := oldThresholdSplit(sc.cell(t), m, sc.bound, sc.levels)
	if !sameErr(err, wantErr) {
		t.Fatalf("m=%d %s: ThresholdSplit error %v, want %v", m, sc.name, err, wantErr)
	}
	if diff := sameCells(got, want); diff != "" {
		t.Fatalf("m=%d %s θ=%d levels=%d: ThresholdSplit: %s", m, sc.name, sc.bound, sc.levels, diff)
	}

	got, improved, err := OptimalSplit(in, m, sc.bound, sc.levels)
	want, wantImproved, wantErr := oldOptimalSplit(sc.cell(t), m, sc.bound, sc.levels)
	if !sameErr(err, wantErr) || improved != wantImproved {
		t.Fatalf("m=%d %s: OptimalSplit improved=%v error %v, want %v, %v", m, sc.name, improved, err, wantImproved, wantErr)
	}
	if diff := sameCells(got, want); diff != "" {
		t.Fatalf("m=%d %s ε=%d levels=%d: OptimalSplit: %s", m, sc.name, sc.bound, sc.levels, diff)
	}

	l, r, err := SplitOnce(in, m)
	wl, wr, wantErr := oldSplitOnce(sc.cell(t), m)
	if !sameErr(err, wantErr) {
		t.Fatalf("m=%d %s: SplitOnce error %v, want %v", m, sc.name, err, wantErr)
	}
	if err == nil {
		if diff := sameCells([]Cell{l, r}, []Cell{wl, wr}); diff != "" {
			t.Fatalf("m=%d %s: SplitOnce: %s", m, sc.name, diff)
		}
	}
	if diff := sameCells([]Cell{in}, []Cell{sc.cell(t)}); diff != "" {
		t.Fatalf("m=%d %s: the splits changed their input: %s", m, sc.name, diff)
	}
}

// FuzzSplitMatchesAppendReference is the differential test on fuzzed cells:
// the dimensionality, the start label (bits below the root), the bound, the
// depth bound, and the records' coordinates, two bytes each as a fraction of
// the cell's extent — 0xffff pins a coordinate to 1.0, the closed face — or,
// with raw set, eight bytes each as a float64's bits, NaN and ±Inf included.
func FuzzSplitMatchesAppendReference(f *testing.F) {
	f.Add(uint8(2), uint64(0), uint8(0), 3, 8, false, []byte{0, 0, 0, 0x80, 0, 0x80, 0, 0x40, 0xff, 0xff, 0x12, 0x34, 0x56, 0x78})
	f.Add(uint8(1), uint64(1<<61-1), uint8(61), 1, 40, false, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0x80, 0})
	f.Add(uint8(3), uint64(5), uint8(3), 2, 20, true, []byte("\x00\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, dims uint8, bits uint64, depth uint8, bound, levels int, raw bool, coords []byte) {
		m := 1 + int(dims)%6
		label := bitlabel.Root(m)
		for i := 0; i < int(depth)%(bitlabel.MaxLen-label.Len()+1); i++ {
			label = label.MustAppend(byte(bits >> i & 1))
		}
		g, err := spatial.RegionOf(label, m)
		if err != nil {
			t.Fatal(err)
		}
		width := 2
		if raw {
			width = 8
		}
		recs := make([]spatial.Record, len(coords)/(width*m))
		for i := range recs {
			p := make(spatial.Point, m)
			for d := range p {
				b := coords[(i*m+d)*width:]
				switch v := binary.LittleEndian.Uint16(b); {
				case raw:
					p[d] = math.Float64frombits(binary.LittleEndian.Uint64(b))
				case v == 0xffff:
					p[d] = 1
				default:
					p[d] = g.Lo[d] + float64(v)/(1<<16)*(g.Hi[d]-g.Lo[d])
				}
			}
			recs[i] = spatial.Record{Key: p, Data: fmt.Sprint(i)}
		}
		matchReference(t, splitCase{name: "fuzz", label: label, m: m, records: recs, bound: bound % 100, levels: levels % 70})
	})
}

// TestSplitChildrenDoNotAlias appends to every cell a split returns, and
// inserts into and deletes from a Tree right after its leaves split: no
// other cell may change, because every view a split hands out is clipped to
// its own records.
func TestSplitChildrenDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
	const m = 2
	extra := spatial.Record{Key: spatial.Point{0.5, 0.5}, Data: "appended"}
	check := func(name string, cells []Cell) {
		t.Helper()
		if len(cells) < 2 {
			t.Fatalf("%s: %d cells, want a split", name, len(cells))
		}
		before := snapshot(cells)
		for i := range cells {
			cells[i].Records = append(cells[i].Records, extra)
			for j := range cells {
				if j == i {
					before[i] = append(before[i], extra.Data)
				}
				if diff := sameData(cells[j].Records, before[j]); diff != "" {
					t.Fatalf("%s: appending to cell %d changed cell %d: %s", name, i, j, diff)
				}
			}
		}
	}
	cells, err := ThresholdSplit(rootCell(m, randomRecords(rng, m, 300)), m, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	check("ThresholdSplit", cells)
	cells, improved, err := OptimalSplit(rootCell(m, randomRecords(rng, m, 300)), m, 10, 20)
	if err != nil || !improved {
		t.Fatalf("OptimalSplit: improved=%v, %v", improved, err)
	}
	check("OptimalSplit", cells)
	l, r, err := SplitOnce(rootCell(m, randomRecords(rng, m, 50)), m)
	if err != nil {
		t.Fatal(err)
	}
	check("SplitOnce", []Cell{l, r})

	tr, err := NewTree(m, 8, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range randomRecords(rng, m, 200) {
		rec.Data = fmt.Sprint(i)
		leaves := tr.NumLeaves()
		if err := tr.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if tr.NumLeaves() == leaves {
			continue
		}
		// The insert split a leaf: write into every fresh leaf that has room.
		for _, leaf := range tr.Leaves() {
			if leaf.Load() == 0 || leaf.Load() >= 8 {
				continue
			}
			before := snapshot(tr.Leaves())
			key := leaf.Records[0].Key
			if ok, err := tr.Delete(key, leaf.Records[0].Data); err != nil || !ok {
				t.Fatalf("Delete: %v, %v", ok, err)
			}
			if err := tr.Insert(spatial.Record{Key: key, Data: "again"}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(spatial.Record{Key: key, Data: "twice"}); err != nil {
				t.Fatal(err)
			}
			after := tr.Leaves()
			if len(after) != len(before) {
				continue // the inserts split the leaf again
			}
			for j, c := range after {
				if c.Label == leaf.Label {
					continue
				}
				if diff := sameData(c.Records, before[j]); diff != "" {
					t.Fatalf("writing leaf %v changed leaf %v: %s", leaf.Label, c.Label, diff)
				}
			}
		}
	}
}

// snapshot copies out each cell's record payloads.
func snapshot(cells []Cell) [][]string {
	out := make([][]string, len(cells))
	for i, c := range cells {
		for _, r := range c.Records {
			out[i] = append(out[i], r.Data)
		}
	}
	return out
}

func sameData(recs []spatial.Record, want []string) string {
	if len(recs) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Data != want[i] {
			return fmt.Sprintf("record %d is %q, want %q", i, r.Data, want[i])
		}
	}
	return ""
}

// TestSplitAllocs: ThresholdSplit allocates O(cells), not O(n·depth) — the
// keys and positions with their sort buffers, the placed records, the leaf
// lists and one block of regions: 22 allocations and 1.8 MB for 20k records —
// where the append-based split grew two fresh record halves at every level.
func TestSplitAllocs(t *testing.T) {
	if dhttest.RaceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	const m, n = 2, 20000
	rng := rand.New(rand.NewSource(3))
	c := rootCell(m, randomRecords(rng, m, n))
	cells, err := ThresholdSplit(c, m, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ThresholdSplit(c, m, 20, 30); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 6 // AllocsPerRun's warm-up run too
	recordSize := float64(unsafe.Sizeof(spatial.Record{}))
	if max := float64(5*len(cells) + 32); allocs > max {
		t.Errorf("ThresholdSplit of %d records into %d cells: %.0f allocations, want ≤ %.0f", n, len(cells), allocs, max)
	}
	if max := 2*n*recordSize + 512*float64(len(cells)); bytes > max {
		t.Errorf("ThresholdSplit of %d records into %d cells: %.0f bytes, want ≤ %.0f", n, len(cells), bytes, max)
	}
	t.Logf("%d records, %d cells: %.0f allocations, %.0f bytes", n, len(cells), allocs, bytes)
}

// BenchmarkThreshold is the split a bulk load of 250k uniform records makes
// at the default depth bound: keys, sort and the records' positions per leaf.
func BenchmarkThreshold(b *testing.B) {
	const m = 2
	c := rootCell(m, randomRecords(rand.New(rand.NewSource(5)), m, 250000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Threshold(c, m, 64, 28); err != nil {
			b.Fatal(err)
		}
	}
}
