package mlight_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mlight"
	"mlight/internal/daemon"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/substrate"
	"mlight/internal/transport"
	"mlight/internal/wire"
	"mlight/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerGolden = "testdata/ledger.golden"

// TestCostLedger pins every cost the index pays that no machine can blur,
// one row per shape, cache state and phase, byte for byte against
// testdata/ledger.golden. A change that moves a cost shows as a diff of that
// file; regenerate it with
//
//	go test -run TestCostLedger -update .
//
// and say in CHANGES.md why the diff is right.
//
// The shapes are the benchmark's four: the in-memory dht.Local (128 peers);
// dht.Local over a WAL with the bucket codec; a 16-peer Chord ring with
// replication 2 on the simnet; and three WAL-backed daemons on fixed
// loopback ports under mlight.Dial with the tcp-cluster workload's client
// options. Each runs with the leaf cache off and with 256 leaves. A
// 5,000-record NE preload (seed 1) is not charged; the phases after it are
// 1,000 inserts, 1,000 lookups, 200 RangeQuery and 200 RangeQueryParallel
// (h = 2) of span 0.05, 1,000 records by InsertBatch in chunks of 64, and
// 1,000 deletes of the inserted records.
//
// The columns are the paper's counts (DHT lookups, batch rounds and probes,
// records moved, splits, merges); cache hits, misses and stale entries;
// frames by request type where a transport carries them, counted on the
// client side; on the dialed shape, whose frames marshal (the simnet carries
// Go values, closures among them), request-plus-reply bytes and the most
// frames one daemon got in one operation, so that a warm range's one frame a
// daemon reads busiest=1; and on the durable and dialed shapes the WAL's log
// records, log bytes and compactions, summed over the daemons. A compaction
// resets the log, so the operation that triggers one is charged only the log
// written after it.
//
// Three costs are left out:
//   - Allocations. The in-process shapes' phases, run four times in one
//     process, repeated their malloc counts in only 6 of 24 rows: on
//     local with the cache off the 1,000 inserts made 14,411–14,413, the
//     group commits 15,042–15,114 and the 200 ranges 22,030–22,042. TCP
//     adds sync.Pool. The kernel allocation gates pin the paths that are
//     exact.
//   - Daemon maintenance traffic: stabilization and replication between
//     daemons are not the client's costs, and the daemons stabilize only
//     when told to.
//   - Routing steps (chord.lookupStepReq) on the Chord shape. A hosting
//     overlay draws each lookup's entry point from one seeded generator in
//     the order concurrent lookups reach it, so the lookups of a range's
//     batch round or of a group commit route from entries that depend on
//     scheduling. Over four
//     runs the cache-off range phase issued its 3,636 DHT lookups every
//     time but took 9,363–9,381 routing steps, and the batch phase
//     8,978–9,079 (ROADMAP, known-open). Every other frame the ring sends
//     is pinned.
//
// The dialed shape binds fixed ports because a node's id is the hash of its
// address: on ephemeral ports which daemon owns which key, and with it how
// many frames a range round needs, changes from run to run.
func TestCostLedger(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	var got bytes.Buffer
	fmt.Fprintf(&got, "# Exact costs of one seeded client: see TestCostLedger. Regenerate with\n")
	fmt.Fprintf(&got, "#   go test -run TestCostLedger -update .\n")
	for _, shape := range ledgerShapes {
		for _, cache := range []int{0, 256} {
			// A subtest apiece, so that its cleanup stops one cluster
			// before the next binds the same ports.
			t.Run(fmt.Sprintf("%s/cache=%d", shape.name, cache), func(t *testing.T) {
				ix, m := shape.build(t, cache)
				for _, row := range runLedger(t, ix, m) {
					fmt.Fprintf(&got, "%s cache=%d %s\n", shape.name, cache, row)
				}
			})
		}
	}
	if t.Failed() {
		return
	}

	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("costs differ from %s (regenerate with -update if the change is meant):\n%s",
			ledgerGolden, ledgerDiff(string(want), got.String()))
	}
}

// ledgerShapes are the four substrates the ledger runs. build returns an
// index with the given cache size over a fresh, empty substrate and the
// meter that reads the substrate's own costs.
var ledgerShapes = []struct {
	name  string
	build func(t *testing.T, cache int) (*mlight.Index, *meter)
}{
	{"local", func(t *testing.T, cache int) (*mlight.Index, *meter) {
		return ledgerIndex(t, mlight.NewLocalDHT(128), cache), &meter{}
	}},
	{"durable", func(t *testing.T, cache int) (*mlight.Index, *meter) {
		dir := t.TempDir()
		w, err := dht.OpenWAL(dht.WALOptions{Dir: dir, Codec: wire.BucketCodec{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := w.Close(); err != nil {
				t.Errorf("wal close: %v", err)
			}
		})
		d, err := dht.NewDurableLocal(128, w)
		if err != nil {
			t.Fatal(err)
		}
		return ledgerIndex(t, d, cache), &meter{wal: walMeters(w)}
	}},
	{"chord", func(t *testing.T, cache int) (*mlight.Index, *meter) {
		w := &wireCount{Interface: simnet.New(simnet.Options{})}
		ring, err := substrate.Cluster("chord", w, 16, overlay.Config{Seed: 1, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		return ledgerIndex(t, ring, cache), &meter{wire: w, skip: "chord.lookupStepReq"}
	}},
	{"dial", func(t *testing.T, cache int) (*mlight.Index, *meter) {
		w := &wireCount{sized: true}
		addrs, wals := startLoopback(t, 3)
		client := dialCounted(t, addrs, w,
			mlight.WithRetry(mlight.RetryPolicy{MaxAttempts: 6, Seed: 1}),
			mlight.WithCache(cache),
			mlight.WithSeed(1))
		return client.Index, &meter{wire: w, wal: walMeters(wals...)}
	}},
}

func ledgerIndex(t *testing.T, d mlight.DHT, cache int) *mlight.Index {
	t.Helper()
	ix, err := mlight.New(d, mlight.WithCache(cache), mlight.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// runLedger preloads ix and runs the phases, returning one row each: the
// phase's name and its costs as column=value pairs.
func runLedger(t *testing.T, ix *mlight.Index, m *meter) []string {
	t.Helper()
	const preload, ops, ranges, chunk = 5000, 1000, 200, 64
	recs := mlight.GenerateNE(preload+2*ops, 1)
	if err := ix.BulkLoad(recs[:preload]); err != nil {
		t.Fatal(err)
	}
	inserted, batched := recs[preload:preload+ops], recs[preload+ops:]
	// The deletes empty the westmost slab of the preload, so that leaves
	// underflow and merge.
	deleted := slices.Clone(recs[:preload])
	slices.SortFunc(deleted, func(a, b mlight.Record) int { return cmp.Compare(a.Key[0], b.Key[0]) })
	deleted = deleted[:ops]
	rng := rand.New(rand.NewSource(1))
	gen, err := workload.NewRangeGenerator(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.SpanBatch(0.05, 2*ranges)
	if err != nil {
		t.Fatal(err)
	}

	var rows []string
	phase := func(name string, each func(i int) error, n int) {
		m.start(ix)
		for i := 0; i < n; i++ {
			if err := each(i); err != nil {
				t.Fatalf("%s %d: %v", name, i, err)
			}
			m.tick()
		}
		rows = append(rows, name+" "+m.row(ix))
	}
	phase("insert", func(i int) error { return ix.Insert(inserted[i]) }, ops)
	phase("lookup", func(int) error {
		_, err := ix.Lookup(recs[rng.Intn(preload)].Key)
		return err
	}, ops)
	phase("range", func(i int) error {
		_, err := ix.RangeQuery(queries[i])
		return err
	}, ranges)
	phase("range-h2", func(i int) error {
		_, err := ix.RangeQueryParallel(queries[ranges+i], 2)
		return err
	}, ranges)
	phase("batch", func(i int) error {
		for _, err := range ix.InsertBatch(batched[i*chunk : min((i+1)*chunk, ops)]) {
			if err != nil {
				return err
			}
		}
		return nil
	}, (ops+chunk-1)/chunk)
	phase("delete", func(i int) error {
		ok, err := ix.Delete(deleted[i].Key, deleted[i].Data)
		if err == nil && !ok {
			err = fmt.Errorf("record %q not found", deleted[i].Data)
		}
		return err
	}, ops)
	return rows
}

// meter reads one phase's costs: the index's counters, and the frames and
// WALs the shape has.
type meter struct {
	wire   *wireCount
	skip   string // a frame type left out of the row
	wal    []*walMeter
	before mlight.Stats
	most   int // the most frames one peer got in one operation
}

func (m *meter) start(ix *mlight.Index) {
	m.before = ix.Stats()
	if m.wire != nil {
		m.wire.take()
		m.wire.busiest()
	}
	m.most = 0
	for _, w := range m.wal {
		w.start()
	}
}

// tick runs after every operation, so the WAL meter sees each compaction
// and the busiest peer is counted per operation.
func (m *meter) tick() {
	if m.wire != nil {
		m.most = max(m.most, m.wire.busiest())
	}
	for _, w := range m.wal {
		w.tick()
	}
}

func (m *meter) row(ix *mlight.Index) string {
	d := ix.Stats().Sub(m.before)
	cols := []string{
		col("lookups", d.DHTLookups),
		col("batch_rounds", d.BatchRounds),
		col("batch_probes", d.BatchProbes),
		col("moved", d.RecordsMoved),
		col("splits", d.Splits),
		col("merges", d.Merges),
		col("cache_hits", d.CacheHits),
		col("cache_misses", d.CacheMisses),
		col("cache_stale", d.CacheStale),
	}
	if m.wire != nil {
		_, size, byType := m.wire.take()
		types := make([]string, 0, len(byType))
		for typ := range byType {
			if typ != m.skip {
				types = append(types, typ)
			}
		}
		sort.Strings(types)
		for _, typ := range types {
			cols = append(cols, col("frames."+typ, byType[typ]))
		}
		if m.wire.sized {
			cols = append(cols, col("bytes", size), col("busiest", m.most))
		}
	}
	if len(m.wal) > 0 {
		var records, bytes, compactions int
		for _, w := range m.wal {
			records, bytes, compactions = records+w.records, bytes+w.bytes, compactions+w.compactions
		}
		cols = append(cols, col("wal.records", records), col("wal.bytes", bytes), col("wal.compactions", compactions))
	}
	return strings.Join(cols, " ")
}

func col[N int | int64](name string, n N) string { return name + "=" + strconv.FormatInt(int64(n), 10) }

// walMeter counts what a phase wrote to a WAL's log from what the WAL shows:
// its record count and the log's logical size, both of which a compaction
// resets.
type walMeter struct {
	w    *dht.WAL
	last int
	size int64

	records, bytes, compactions int
}

// walMeters returns a meter for each of ws.
func walMeters(ws ...*dht.WAL) []*walMeter {
	out := make([]*walMeter, len(ws))
	for i, w := range ws {
		out[i] = &walMeter{w: w}
	}
	return out
}

func (m *walMeter) start() {
	m.last, m.size = m.w.LogRecords(), m.w.LogBytes()
	m.records, m.bytes, m.compactions = 0, 0, 0
}

func (m *walMeter) tick() {
	n, size := m.w.LogRecords(), m.w.LogBytes()
	if n < m.last {
		m.compactions++
		m.last, m.size = 0, 0
	}
	m.records += n - m.last
	m.bytes += int(size - m.size)
	m.last, m.size = n, size
}

// ledgerDiff names, for each row of want and got that differ, the row and
// every column whose value moved.
func ledgerDiff(want, got string) string {
	parse := func(s string) (order []string, rows map[string]map[string]string) {
		rows = make(map[string]map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || strings.HasPrefix(line, "#") {
				continue
			}
			key := strings.Join(f[:3], " ")
			cols := make(map[string]string)
			for _, kv := range f[3:] {
				name, v, _ := strings.Cut(kv, "=")
				cols[name] = v
			}
			order = append(order, key)
			rows[key] = cols
		}
		return order, rows
	}
	wantOrder, wantRows := parse(want)
	gotOrder, gotRows := parse(got)
	var out strings.Builder
	for _, key := range wantOrder {
		g, ok := gotRows[key]
		if !ok {
			fmt.Fprintf(&out, "  %s: row missing\n", key)
			continue
		}
		w := wantRows[key]
		var names []string
		for name := range w {
			names = append(names, name)
		}
		for name := range g {
			if _, ok := w[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if w[name] != g[name] {
				fmt.Fprintf(&out, "  %s: %s golden %q, got %q\n", key, name, w[name], g[name])
			}
		}
	}
	for _, key := range gotOrder {
		if _, ok := wantRows[key]; !ok {
			fmt.Fprintf(&out, "  %s: row not in the golden\n", key)
		}
	}
	if out.Len() == 0 {
		return "  the rows agree; the header or the row order differs"
	}
	return out.String()
}

// wireCount counts what a client puts on the wire: calls by request type
// and, when sized, the encoded size of every request and reply (the frame
// header's dozen bytes not included). Sizing marshals each value a second
// time: ns/op measured through it is inflated.
type wireCount struct {
	transport.Interface
	sized bool

	mu     sync.Mutex
	byType map[string]int
	byDest map[transport.NodeID]int
	calls  int
	bytes  int
}

func (w *wireCount) Call(from, to transport.NodeID, req any) (any, error) {
	resp, err := w.Interface.Call(from, to, req)
	var n int
	if w.sized {
		for _, v := range []any{req, resp} {
			if data, merr := transport.Marshal(v); merr == nil {
				n += len(data)
			}
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.byType == nil {
		w.byType = make(map[string]int)
	}
	if w.byDest == nil {
		w.byDest = make(map[transport.NodeID]int)
	}
	w.byType[reflect.TypeOf(req).String()]++
	w.byDest[to]++
	w.calls++
	w.bytes += n
	return resp, err
}

// InlineDelivery forwards the wrapped transport's marker, so a simnet
// under the counter still carries closures.
func (w *wireCount) InlineDelivery() bool { return transport.SupportsInline(w.Interface) }

// busiest returns the most calls one destination was sent since the last
// busiest, and starts the next count.
func (w *wireCount) busiest() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	most := 0
	for _, n := range w.byDest {
		most = max(most, n)
	}
	w.byDest = nil
	return most
}

// take returns the counts since the last take.
func (w *wireCount) take() (calls, bytes int, byType map[string]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	calls, bytes, byType = w.calls, w.bytes, w.byType
	w.calls, w.bytes, w.byType = 0, 0, nil
	return calls, bytes, byType
}

// loopbackPort is the first of the fixed ports startLoopback binds: below
// the kernel's ephemeral range (Linux: 32768–60999), so that no other
// test's listener takes it, and apart from the ranges the overlay suites
// and the benchmark harness bind.
const loopbackPort = 17401

// startLoopback boots n WAL-backed daemons on loopback TCP, on the fixed
// ports from loopbackPort up, and returns their addresses and their WALs. A
// daemon's id is the hash of its address, so fixed ports give one ring layout
// every run.
func startLoopback(tb testing.TB, n int) (addrs []string, wals []*dht.WAL) {
	tb.Helper()
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", loopbackPort+i)
		d, err := daemon.Start(daemon.Config{
			Listen:         addr,
			Seeds:          addrs,
			Replication:    2,
			WALDir:         tb.TempDir(),
			StabilizeEvery: -1,
			Seed:           int64(i + 1),
		})
		if err != nil {
			tb.Fatalf("start daemon %d on %s: %v", i, addr, err)
		}
		tb.Cleanup(func() {
			//lint:allow droppederr teardown of a cluster that is being discarded
			d.Close()
		})
		addrs, wals = append(addrs, d.Addr()), append(wals, d.WAL())
	}
	return addrs, wals
}

// dialCounted dials addrs with w counting over a TCP transport under the
// client.
func dialCounted(tb testing.TB, addrs []string, w *wireCount, opts ...mlight.Option) *mlight.Client {
	tb.Helper()
	tcp := transport.NewTCP(transport.TCPOptions{})
	tb.Cleanup(func() {
		if err := tcp.Close(); err != nil {
			tb.Errorf("transport close: %v", err)
		}
	})
	w.Interface = tcp
	client, err := mlight.Dial(addrs, append([]mlight.Option{mlight.WithTransport(w)}, opts...)...)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	return client
}
