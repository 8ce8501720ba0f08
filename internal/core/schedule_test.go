package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// This file proves that a bucket move (move.go) is atomic as other clients
// see it, by running every schedule of a few clients' operations that has at
// most two preemptions (iterative context bounding, Musuvathi & Qadeer, PLDI
// 2007) over one dht.Local, one DHT call at a time (dhttest.Stepper).
// core.CheckInvariants runs after every step, and after every schedule a
// checker finds a sequential order, consistent with real time, that explains
// every answer. A failing schedule prints as the list of client ids whose
// calls ran, in order; replay runs that list again.

// schedOp is one client operation.
type schedOp struct {
	kind  byte // 'i' insert, 'd' delete, 'l' lookup, 'r' range query
	rec   spatial.Record
	point spatial.Point
	rect  spatial.Rect
}

func ins(x, y float64, data string) schedOp {
	return schedOp{kind: 'i', rec: spatial.Record{Key: spatial.Point{x, y}, Data: data}}
}

func del(x, y float64, data string) schedOp {
	return schedOp{kind: 'd', rec: spatial.Record{Key: spatial.Point{x, y}, Data: data}}
}

func look(x, y float64) schedOp { return schedOp{kind: 'l', point: spatial.Point{x, y}} }

func rangeAll() schedOp {
	return schedOp{kind: 'r', rect: spatial.Rect{Lo: spatial.Point{0, 0}, Hi: spatial.Point{1, 1}}}
}

func (o schedOp) String() string {
	switch o.kind {
	case 'i':
		return fmt.Sprintf("Insert(%v %s)", o.rec.Key, o.rec.Data)
	case 'd':
		return fmt.Sprintf("Delete(%v %s)", o.rec.Key, o.rec.Data)
	case 'l':
		return fmt.Sprintf("Lookup(%v)", o.point)
	}
	return fmt.Sprintf("RangeQuery(%v)", o.rect)
}

// schedConfig is one enumerated setting: the index's θ and θmerge, the tree
// seeded before the schedule (inserts, then deletes, run by one client), and
// each client's program. cached lists the clients that run with a leaf cache.
type schedConfig struct {
	name         string
	theta, merge int
	seed         []schedOp
	programs     [][]schedOp
	cached       []bool
}

func (c schedConfig) tuning(cache bool) index.Tuning {
	t := index.Tuning{Dims: 2, MaxDepth: 8, Capacity: c.theta, MergeThreshold: c.merge, MaxInFlight: 1}
	if cache {
		t.CacheSize = 8
	}
	return t
}

// outcome is what one operation answered, and when, on the Stepper's clock:
// it was invoked after start calls had run and returned after end.
type outcome struct {
	err        error
	removed    bool
	bucket     Bucket
	records    []spatial.Record
	start, end int
}

// decision is one scheduling decision of a run: the parked calls, the client
// whose call ran, the client that ran before it, the clients asleep (their
// call commutes with everything run since a sibling schedule ran it), and the
// preemptions so far.
type decision struct {
	calls    []dhttest.Call
	chosen   int
	prev     int
	sleep    map[int]bool
	preempts int
}

// runResult is one schedule's run.
type runResult struct {
	steps   []decision
	history [][]outcome
	pruned  bool
	err     error
}

// enabled reports whether client id has a parked call among calls.
func enabled(calls []dhttest.Call, id int) (dhttest.Call, bool) {
	for _, c := range calls {
		if c.Client == id {
			return c, true
		}
	}
	return dhttest.Call{}, false
}

// chooser picks the client whose parked call runs at step d, given the one
// that ran last; false ends the run (the schedule is covered elsewhere).
type chooser func(d int, calls []dhttest.Call, prev int) (int, bool)

// runSchedule runs cfg's programs, following prefix and then the default
// policy — the client that ran last while it can, else the lowest id awake —
// with sleep the sleep set at the end of the prefix.
func runSchedule(cfg schedConfig, prefix []int, sleep map[int]bool, preempts int) runResult {
	if sleep == nil {
		sleep = map[int]bool{}
	}
	var steps []decision
	res := runWith(cfg, func(d int, calls []dhttest.Call, prev int) (int, bool) {
		s := decision{calls: calls, prev: prev, preempts: preempts, chosen: -1}
		if d < len(prefix) {
			s.chosen = prefix[d]
			steps = append(steps, s)
			_, ok := enabled(calls, s.chosen)
			return s.chosen, ok
		}
		s.sleep = sleep
		if _, ok := enabled(calls, prev); ok && !sleep[prev] {
			s.chosen = prev
		} else {
			for _, c := range calls {
				if !sleep[c.Client] {
					s.chosen = c.Client
					break
				}
			}
			if _, ok := enabled(calls, prev); ok && s.chosen >= 0 {
				preempts++
			}
		}
		if s.chosen < 0 || preempts > maxPreemptions {
			// Every parked call sleeps, or the run needs a preemption past
			// the bound: another schedule covers it.
			return 0, false
		}
		ran, _ := enabled(calls, s.chosen)
		next := map[int]bool{}
		for id := range sleep {
			if c, ok := enabled(calls, id); ok && c.Commutes(ran) {
				next[id] = true
			}
		}
		sleep = next
		steps = append(steps, s)
		return s.chosen, true
	})
	res.steps = steps
	return res
}

// runWith runs cfg's programs over a fresh substrate under choose,
// checking the invariants before every step and the answers at the end.
func runWith(cfg schedConfig, choose chooser) runResult {
	inner := dht.MustNewLocal(1)
	seedIx, err := New(inner, cfg.tuning(false))
	if err != nil {
		return runResult{err: err}
	}
	for _, op := range cfg.seed {
		switch op.kind {
		case 'i':
			err = seedIx.Insert(op.rec)
		case 'd':
			_, err = seedIx.Delete(op.rec.Key, op.rec.Data)
		}
		if err != nil {
			return runResult{err: fmt.Errorf("seed %v: %w", op, err)}
		}
	}
	st := dhttest.NewStepper()
	clients := make([]*Index, len(cfg.programs))
	for i := range clients {
		if clients[i], err = New(st.Client(inner), cfg.tuning(i < len(cfg.cached) && cfg.cached[i])); err != nil {
			return runResult{err: err}
		}
	}
	res := runResult{history: make([][]outcome, len(clients))}
	for i, p := range cfg.programs {
		res.history[i] = make([]outcome, len(p))
	}
	st.Start()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer st.Finish(id)
			runProgram(st, clients[id], cfg.programs[id], res.history[id])
		}(i)
	}
	defer wg.Wait()
	var ran []int
	prev := -1
	for d := 0; ; d++ {
		calls := st.Wait()
		if err := CheckInvariants(seedIx); err != nil {
			res.err = fmt.Errorf("schedule %v: %w", ran, err)
			drain(st)
			return res
		}
		if len(calls) == 0 {
			break
		}
		next, ok := choose(d, calls, prev)
		if !ok {
			res.pruned = true
			drain(st)
			return res
		}
		if _, parked := enabled(calls, next); !parked {
			res.err = fmt.Errorf("schedule %v: client %d has no call at step %d", append(ran, next), next, d)
			drain(st)
			return res
		}
		ran = append(ran, next)
		st.Release(next)
		prev = next
	}
	if err := checkHistory(cfg, res.history); err != nil {
		res.err = fmt.Errorf("schedule %v: %w", ran, err)
	}
	return res
}

// maxPreemptions is the context bound.
const maxPreemptions = 2

// drain lets every client run to the end, in id order, once a run is over.
func drain(st *dhttest.Stepper) {
	for {
		calls := st.Wait()
		if len(calls) == 0 {
			return
		}
		st.Release(calls[0].Client)
	}
}

// schedule returns the client ids of a run's steps.
func schedule(steps []decision) []int {
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = s.chosen
	}
	return out
}

// runProgram runs one client's operations, recording each one's answer.
func runProgram(st *dhttest.Stepper, ix *Index, ops []schedOp, out []outcome) {
	for i, op := range ops {
		o := &out[i]
		o.start = st.Steps()
		switch op.kind {
		case 'i':
			o.err = ix.Insert(op.rec)
		case 'd':
			o.removed, o.err = ix.Delete(op.rec.Key, op.rec.Data)
		case 'l':
			o.bucket, o.err = ix.Lookup(op.point)
		case 'r':
			var res *QueryResult
			if res, o.err = ix.RangeQuery(op.rect); o.err == nil {
				o.records = res.Records
			}
		}
		o.end = st.Steps()
	}
}

// task is a schedule still to run: a prefix, the sleep set after it, and the
// preemptions it has spent.
type task struct {
	prefix   []int
	sleep    map[int]bool
	preempts int
}

// enumerate runs every schedule of cfg with at most maxPreemptions
// preemptions, less those a sleep set shows equivalent to one already run,
// and returns how many ran, failing t at the first that breaks.
func enumerate(t *testing.T, cfg schedConfig) int {
	t.Helper()
	stack := []task{{}}
	runs := 0
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res := runSchedule(cfg, tk.prefix, tk.sleep, tk.preempts)
		runs++
		if res.err != nil {
			t.Fatalf("%s: %v\nprograms: %v", cfg.name, res.err, cfg.programs)
		}
		// Branch at every step past the prefix: each other awake client,
		// each with the sleep set of its earlier siblings.
		for d := len(res.steps) - 1; d >= len(tk.prefix); d-- {
			s := res.steps[d]
			done := map[int]bool{s.chosen: true}
			for id := range s.sleep {
				done[id] = true
			}
			for _, alt := range s.calls {
				if done[alt.Client] {
					continue
				}
				p := s.preempts
				if _, ok := enabled(s.calls, s.prev); ok && alt.Client != s.prev {
					p++
				}
				if p > maxPreemptions {
					continue
				}
				sleep := map[int]bool{}
				for id := range done {
					if c, ok := enabled(s.calls, id); ok && c.Commutes(alt) {
						sleep[id] = true
					}
				}
				prefix := append(slices.Clone(schedule(res.steps[:d])), alt.Client)
				stack = append(stack, task{prefix: prefix, sleep: sleep, preempts: p})
				done[alt.Client] = true
			}
		}
	}
	return runs
}

// replay runs one schedule and reports what broke, if anything.
func replay(cfg schedConfig, sched []int) error {
	return runSchedule(cfg, sched, nil, 0).err
}

// checkHistory finds a sequential order of the clients' operations,
// consistent with their real-time order, under which every answer is right
// (Wing–Gong search, memoised on each client's progress and the model). The
// model is the set of records, by payload. A lookup is one event: its bucket
// covers the point and holds exactly the model's records in its cell. A range
// query is two events, its start and its end, between which the others may
// run: its answer holds every record in q that the model held throughout and
// nothing that it never held — a range reads its leaves over several rounds,
// and was never an atomic snapshot.
func checkHistory(cfg schedConfig, hist [][]outcome) error {
	for c, ops := range hist {
		for i, o := range ops {
			if o.err != nil {
				return fmt.Errorf("client %d %v: %w", c, cfg.programs[c][i], o.err)
			}
		}
	}
	model := map[string]spatial.Record{}
	for _, op := range cfg.seed {
		switch op.kind {
		case 'i':
			model[op.rec.Data] = op.rec
		case 'd':
			delete(model, op.rec.Data)
		}
	}
	ch := checker{cfg: cfg, hist: hist, seen: map[string]bool{}}
	events := make([]int, len(hist))
	if ch.search(events, model, map[int]*window{}) {
		return nil
	}
	var b strings.Builder
	for c, ops := range hist {
		for i, o := range ops {
			fmt.Fprintf(&b, "\n  client %d %v [%d,%d]: removed=%v bucket=%v records=%v", c, cfg.programs[c][i], o.start, o.end, o.removed, o.bucket.Label, payloads(o.records))
			if o.bucket.Label.Len() > 0 {
				fmt.Fprintf(&b, " holding %v", payloads(o.bucket.Records()))
			}
		}
	}
	return fmt.Errorf("no sequential order explains the answers:%s", b.String())
}

// window is what an open range query has seen so far: the records the model
// held throughout, and any time.
type window struct{ always, ever map[string]bool }

type checker struct {
	cfg  schedConfig
	hist [][]outcome
	seen map[string]bool
}

// search places the next event of some client whose operation no unplaced
// operation precedes in real time. events[c] counts client c's placed events:
// a range query has two.
func (ch *checker) search(events []int, model map[string]spatial.Record, open map[int]*window) bool {
	key := ch.key(events, model, open)
	if ch.seen[key] {
		return false
	}
	ch.seen[key] = true
	doneAll := true
	for c := range ch.hist {
		op, ev, ok := ch.next(c, events[c])
		if !ok {
			continue
		}
		doneAll = false
		if !ch.free(c, op, events) {
			continue
		}
		o, prog := ch.hist[c][op], ch.cfg.programs[c][op]
		m := maps(model)
		w := copyOpen(open)
		switch {
		case prog.kind == 'i':
			m[prog.rec.Data] = prog.rec
		case prog.kind == 'd':
			_, had := m[prog.rec.Data]
			if had != o.removed {
				continue
			}
			delete(m, prog.rec.Data)
		case prog.kind == 'l':
			if !lookupExplained(o, prog, m) {
				continue
			}
		case ev == 0:
			w[c] = &window{always: dataSet(m), ever: dataSet(m)}
		default:
			if !rangeExplained(o, prog, open[c]) {
				continue
			}
			delete(w, c)
		}
		for _, win := range w {
			for d := range win.always {
				if _, ok := m[d]; !ok {
					delete(win.always, d)
				}
			}
			for d := range m {
				win.ever[d] = true
			}
		}
		next := slices.Clone(events)
		next[c]++
		if ch.search(next, m, w) {
			return true
		}
	}
	return doneAll
}

// next returns the operation and its event number for client c's e-th event.
func (ch *checker) next(c, e int) (op, ev int, ok bool) {
	for i, prog := range ch.cfg.programs[c] {
		n := 1
		if prog.kind == 'r' {
			n = 2
		}
		if e < n {
			return i, e, true
		}
		e -= n
	}
	return 0, 0, false
}

// free reports whether client c's operation op may be placed: no other
// client's first unplaced operation returned before it was invoked.
func (ch *checker) free(c, op int, events []int) bool {
	start := ch.hist[c][op].start
	for d := range ch.hist {
		if d == c {
			continue
		}
		if other, _, ok := ch.next(d, events[d]); ok && ch.hist[d][other].end <= start {
			return false
		}
	}
	return true
}

func (ch *checker) key(events []int, model map[string]spatial.Record, open map[int]*window) string {
	var b strings.Builder
	fmt.Fprint(&b, events)
	for _, d := range sortedKeys(dataSet(model)) {
		b.WriteString(" " + d)
	}
	for c := range ch.hist {
		if w := open[c]; w != nil {
			fmt.Fprintf(&b, " |%d %v %v", c, sortedKeys(w.always), sortedKeys(w.ever))
		}
	}
	return b.String()
}

// lookupExplained reports whether a lookup's bucket covers its point and
// holds exactly the model's records in its cell.
func lookupExplained(o outcome, prog schedOp, model map[string]spatial.Record) bool {
	if !covers(o.bucket.Label, prog.point) {
		return false
	}
	cell, err := spatial.RegionOf(o.bucket.Label, 2)
	if err != nil {
		return false
	}
	want := map[string]bool{}
	for d, r := range model {
		if cell.Contains(r.Key) {
			want[d] = true
		}
	}
	got := payloads(o.bucket.Records())
	return len(got) == len(want) && all(got, want)
}

// rangeExplained reports whether a range's answer lies in q, holds every
// record of q the model held throughout the window and none it never held.
func rangeExplained(o outcome, prog schedOp, w *window) bool {
	got := map[string]bool{}
	for _, r := range o.records {
		if !prog.rect.Contains(r.Key) || got[r.Data] || !w.ever[r.Data] {
			return false
		}
		got[r.Data] = true
	}
	for d := range w.always {
		if !got[d] {
			return false
		}
	}
	return true
}

func all(got []string, want map[string]bool) bool {
	for _, d := range got {
		if !want[d] {
			return false
		}
	}
	return true
}

func payloads(recs []spatial.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Data
	}
	sort.Strings(out)
	return out
}

func maps(m map[string]spatial.Record) map[string]spatial.Record {
	out := make(map[string]spatial.Record, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func dataSet(m map[string]spatial.Record) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func copyOpen(open map[int]*window) map[int]*window {
	out := make(map[int]*window, len(open))
	for c, w := range open {
		out[c] = &window{always: maps2(w.always), ever: maps2(w.ever)}
	}
	return out
}

func maps2(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// seedSplit fills the root leaf to θ = 3: one insert short of a split.
var seedSplit = []schedOp{ins(0.1, 0.1, "s1"), ins(0.6, 0.2, "s2"), ins(0.7, 0.8, "s3")}

// seedDeep puts θ = 2 records in one quadrant: the next insert there splits
// the root several levels deep, moving pieces to several keys.
var seedDeep = []schedOp{ins(0.1, 0.1, "s1"), ins(0.2, 0.15, "s2")}

// seedMerge leaves the root's two halves holding one record each under
// θ = 4, θmerge = 2: one delete short of a merge.
var seedMerge = []schedOp{
	ins(0.1, 0.1, "s1"), ins(0.2, 0.2, "s2"), ins(0.3, 0.3, "s3"), ins(0.7, 0.7, "s4"), ins(0.8, 0.8, "s5"),
	del(0.2, 0.2, "s2"), del(0.3, 0.3, "s3"), del(0.8, 0.8, "s5"),
}

// seedMerge3 is seedMerge under θ = 3: the merged bucket splits again after
// three inserts.
var seedMerge3 = []schedOp{
	ins(0.1, 0.1, "s1"), ins(0.2, 0.2, "s2"), ins(0.7, 0.7, "s4"), ins(0.8, 0.8, "s5"),
	del(0.2, 0.2, "s2"), del(0.8, 0.8, "s5"),
}

// moveConfigs are the enumerated settings: two clients with up to three
// operations each and three clients with up to two, over the root alone, a
// tree one insert short of a split and one one delete short of a merge.
var moveConfigs = []schedConfig{
	{name: "root", theta: 2, merge: 1, programs: [][]schedOp{
		{ins(0.1, 0.1, "a1"), ins(0.2, 0.2, "a2"), ins(0.3, 0.35, "a3")},
		{look(0.3, 0.3), ins(0.7, 0.7, "b1"), rangeAll()},
	}},
	{name: "split", theta: 3, merge: 1, seed: seedSplit, programs: [][]schedOp{
		{ins(0.8, 0.6, "a1")},
		{look(0.7, 0.8), rangeAll(), ins(0.9, 0.9, "b1")},
	}},
	{name: "split-cached", theta: 3, merge: 1, seed: seedSplit, cached: []bool{true, true}, programs: [][]schedOp{
		{look(0.8, 0.6), ins(0.8, 0.6, "a1")},
		{look(0.7, 0.8), ins(0.9, 0.9, "b1"), del(0.7, 0.8, "s3")},
	}},
	{name: "split-deep", theta: 2, merge: 1, seed: seedDeep, cached: []bool{false, true}, programs: [][]schedOp{
		{ins(0.15, 0.2, "a1"), del(0.1, 0.1, "s1")},
		{look(0.15, 0.2), ins(0.12, 0.12, "b1"), rangeAll()},
	}},
	{name: "split-3", theta: 3, merge: 1, seed: seedSplit, cached: []bool{false, true, false}, programs: [][]schedOp{
		{ins(0.8, 0.6, "a1"), ins(0.9, 0.4, "a2")},
		{ins(0.9, 0.9, "b1"), look(0.6, 0.2)},
		{rangeAll(), del(0.7, 0.8, "s3")},
	}},
	{name: "split-collapse", theta: 2, merge: 1, seed: seedDeep, programs: [][]schedOp{
		{ins(0.15, 0.2, "a1"), del(0.1, 0.1, "s1")},
		{ins(0.16, 0.21, "b1")},
		{del(0.2, 0.15, "s2"), del(0.15, 0.2, "a1")},
	}},
	{name: "merge", theta: 4, merge: 2, seed: seedMerge, programs: [][]schedOp{
		{del(0.7, 0.7, "s4")},
		{ins(0.9, 0.9, "b1"), ins(0.6, 0.6, "b2"), look(0.9, 0.9)},
	}},
	{name: "merge-cached", theta: 4, merge: 2, seed: seedMerge, cached: []bool{true, true}, programs: [][]schedOp{
		{look(0.7, 0.7), del(0.7, 0.7, "s4"), ins(0.6, 0.4, "a1")},
		{look(0.9, 0.9), ins(0.9, 0.9, "b1"), rangeAll()},
	}},
	{name: "merge-resplit", theta: 3, merge: 2, seed: seedMerge3, cached: []bool{false, true}, programs: [][]schedOp{
		{del(0.7, 0.7, "s4"), look(0.6, 0.6)},
		{ins(0.6, 0.6, "b1"), ins(0.9, 0.1, "b2"), ins(0.3, 0.7, "b3")},
	}},
	{name: "merge-resplit-3", theta: 3, merge: 2, seed: seedMerge3, cached: []bool{true, false, true}, programs: [][]schedOp{
		{del(0.7, 0.7, "s4"), ins(0.4, 0.6, "a1")},
		{ins(0.6, 0.6, "b1"), ins(0.9, 0.1, "b2")},
		{ins(0.3, 0.7, "c1"), rangeAll()},
	}},
	{name: "churn", theta: 2, merge: 1, cached: []bool{false, true}, programs: [][]schedOp{
		{ins(0.1, 0.1, "a1"), ins(0.6, 0.6, "a2"), del(0.1, 0.1, "a1")},
		{ins(0.2, 0.7, "b1"), del(0.2, 0.7, "b1"), look(0.6, 0.6)},
	}},
	{name: "split-merge-cached", theta: 2, merge: 1, seed: seedDeep, cached: []bool{true, true}, programs: [][]schedOp{
		{ins(0.15, 0.2, "a1"), del(0.1, 0.1, "s1"), look(0.15, 0.2)},
		{del(0.2, 0.15, "s2"), ins(0.12, 0.12, "b1"), rangeAll()},
	}},
	{name: "merge-twice", theta: 3, merge: 2, seed: seedMerge3, cached: []bool{false, true}, programs: [][]schedOp{
		{del(0.7, 0.7, "s4"), del(0.1, 0.1, "s1")},
		{ins(0.6, 0.6, "b1"), ins(0.9, 0.1, "b2"), ins(0.3, 0.7, "b3")},
	}},
	{name: "mixed-3", theta: 2, merge: 1, seed: seedDeep, cached: []bool{true, false, true}, programs: [][]schedOp{
		{ins(0.15, 0.2, "a1"), del(0.15, 0.2, "a1")},
		{ins(0.16, 0.21, "b1"), look(0.1, 0.1)},
		{del(0.1, 0.1, "s1"), rangeAll()},
	}},
	{name: "split-range-cached", theta: 3, merge: 1, seed: seedSplit, cached: []bool{true, true}, programs: [][]schedOp{
		{ins(0.8, 0.6, "a1"), rangeAll(), del(0.6, 0.2, "s2")},
		{rangeAll(), ins(0.9, 0.9, "b1"), look(0.8, 0.6)},
	}},
	{name: "merge-3-cached", theta: 4, merge: 2, seed: seedMerge, cached: []bool{true, true, true}, programs: [][]schedOp{
		{del(0.7, 0.7, "s4"), look(0.7, 0.7)},
		{ins(0.7, 0.6, "b1"), del(0.1, 0.1, "s1")},
		{rangeAll(), ins(0.3, 0.3, "c1")},
	}},
	{name: "merge-3", theta: 4, merge: 2, seed: seedMerge, cached: []bool{false, true, false}, programs: [][]schedOp{
		{del(0.7, 0.7, "s4"), ins(0.9, 0.1, "a1")},
		{ins(0.8, 0.8, "b1"), rangeAll()},
		{look(0.7, 0.7), del(0.1, 0.1, "s1")},
	}},
}

// TestMoveSchedules runs every schedule of moveConfigs with at most two
// preemptions.
func TestMoveSchedules(t *testing.T) {
	total := 0
	for _, cfg := range moveConfigs {
		runs := enumerate(t, cfg)
		t.Logf("%s: %d schedules", cfg.name, runs)
		total += runs
	}
	t.Logf("%d schedules in all", total)
}

// pauseAt is a schedule: client 0 runs until its parked call satisfies at,
// then every other client runs to its end, lowest id first, then client 0.
func pauseAt(at func(dhttest.Call) bool) chooser {
	paused := false
	return func(_ int, calls []dhttest.Call, _ int) (int, bool) {
		if c, ok := enabled(calls, 0); ok && !paused && !at(c) {
			return 0, true
		}
		paused = true
		for _, c := range calls {
			if c.Client != 0 {
				return c.Client, true
			}
		}
		return 0, true
	}
}

// opIs reports whether a parked call is a Do of an op of the named type.
func opIs(c dhttest.Call, name string) bool {
	return c.Kind == "do" && fmt.Sprintf("%T", c.Op) == name
}

// TestSplitGapIsInvisible pauses client 0's insert where its split hands
// the first moved piece to its key (an install; a Put while a split re-put
// its pieces blindly) and runs client 1 in the gap: a lookup in the moved
// cell, a range over the whole space and an insert into the moved cell, with
// the cache off and on. Each must answer as if the split were done or not
// begun, and the tree must hold between any two calls.
func TestSplitGapIsInvisible(t *testing.T) {
	for _, cached := range []bool{false, true} {
		cfg := schedConfig{name: "split gap", theta: 4, merge: 2, cached: []bool{cached, cached},
			seed: []schedOp{ins(0.1, 0.1, "s1"), ins(0.2, 0.3, "s2"), ins(0.3, 0.2, "s3"), ins(0.8, 0.7, "s4")},
			programs: [][]schedOp{
				{ins(0.4, 0.4, "a1")},
				{look(0.8, 0.7), rangeAll(), ins(0.9, 0.9, "b1")},
			}}
		res := runWith(cfg, pauseAt(func(c dhttest.Call) bool { return c.Kind == "put" || opIs(c, "core.InstallOp") }))
		if res.err != nil {
			t.Errorf("cache %v: %v", cached, res.err)
		}
	}
}

// TestInsertDuringMergeIsKept pauses client 0's delete where its merge has
// written the merged bucket and is about to retire the other child's key
// (the clear; a Remove while merges wrote blindly) and lets client 1 insert
// six records into the merged cell. None may be lost: afterwards the tree
// holds and the index holds every record.
func TestInsertDuringMergeIsKept(t *testing.T) {
	cfg := schedConfig{name: "merge gap", theta: 4, merge: 2, seed: seedMerge,
		programs: [][]schedOp{
			{del(0.7, 0.7, "s4")},
			{ins(0.6, 0.6, "b1"), ins(0.9, 0.9, "b2"), ins(0.7, 0.1, "b3"), ins(0.6, 0.3, "b4"), ins(0.9, 0.2, "b5"), ins(0.55, 0.8, "b6")},
		}}
	res := runWith(cfg, pauseAt(func(c dhttest.Call) bool { return c.Kind == "remove" || opIs(c, "core.ClearOp") }))
	if res.err != nil {
		t.Fatal(res.err)
	}
}
