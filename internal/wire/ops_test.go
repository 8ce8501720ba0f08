package wire_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mlight/internal/bitlabel"
	"mlight/internal/core"
	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/overlay"
	"mlight/internal/simnet"
	"mlight/internal/spatial"
	"mlight/internal/substrate"
	"mlight/internal/transport"
	"mlight/internal/wire"
)

// opRule splits early, so a handful of records walks a leaf through every
// outcome; opTheta is the θmerge the removals carry.
var opRule = core.SplitRule{Dims: 2, MaxDepth: 20, Strategy: core.SplitThreshold, ThetaSplit: 8, Epsilon: 70}

const opTheta = 4

// opRow is one substrate the equivalence suite runs on.
type opRow struct {
	name string
	// new builds a fresh, empty substrate.
	new func(t *testing.T) dht.DHT
}

// stacked is the decorator stack mlight.Dial builds over a substrate.
func stacked(d dht.DHT) dht.DHT {
	d = wire.NewByteDHT(d, wire.BucketCodec{})
	d = dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
	return dht.NewCounting(d, nil)
}

func durableLocal(t *testing.T, codec dht.Codec) dht.DHT {
	t.Helper()
	w, err := dht.OpenWAL(dht.WALOptions{Dir: t.TempDir(), Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("wal close: %v", err)
		}
	})
	d, err := dht.NewDurableLocal(16, w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func overlayOn(t *testing.T, name string, tcp bool) dht.DHT {
	t.Helper()
	var net transport.Interface = simnet.New(simnet.Options{Seed: 1})
	mint := func(i int) (transport.NodeID, error) { return transport.NodeID(fmt.Sprintf("node-%d", i)), nil }
	if tcp {
		tr := transport.NewTCP(transport.TCPOptions{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second})
		t.Cleanup(func() {
			if err := tr.Close(); err != nil {
				t.Errorf("transport close: %v", err)
			}
		})
		net, mint = tr, func(int) (transport.NodeID, error) { return tr.Reserve() }
	}
	o, err := substrate.New(name, net, overlay.Config{Seed: 1, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		addr, err := mint(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.AddNode(addr); err != nil {
			t.Fatal(err)
		}
	}
	o.Stabilize(2)
	return o
}

// opRows lists every substrate row of the kit: the local store in memory and
// under a WAL, and each overlay on the simulated network and on loopback TCP —
// bare where a bucket can be stored as the value it is (in process), and under
// the byte codec, the retry layer and the counter everywhere.
func opRows() []opRow {
	rows := []opRow{
		{"local", func(t *testing.T) dht.DHT { return dht.MustNewLocal(16) }},
		{"local/stacked", func(t *testing.T) dht.DHT { return stacked(dht.MustNewLocal(16)) }},
		{"durable", func(t *testing.T) dht.DHT { return durableLocal(t, wire.BucketCodec{}) }},
		{"durable/stacked", func(t *testing.T) dht.DHT { return stacked(durableLocal(t, transport.Codec{})) }},
	}
	for _, name := range substrate.Names {
		name := name
		rows = append(rows,
			opRow{name + "/simnet", func(t *testing.T) dht.DHT { return overlayOn(t, name, false) }},
			opRow{name + "/simnet/stacked", func(t *testing.T) dht.DHT { return stacked(overlayOn(t, name, false)) }},
			opRow{name + "/tcp/stacked", func(t *testing.T) dht.DHT { return stacked(overlayOn(t, name, true)) }},
		)
	}
	return rows
}

// outcome is what a driver can see of an op's result, in a form that compares:
// a result that crossed a socket carries the kept bucket's records only where
// the driver reads them.
type outcome struct {
	Gone, Removed        bool
	Stale                []int
	Accepted             int
	Splits, RecordsMoved int64
	KeepLabel            bitlabel.Label
	Load                 int
	Keep                 string
	Moved                []string
	Err                  string
}

func outcomeOf(t *testing.T, result any) outcome {
	t.Helper()
	switch r := result.(type) {
	case core.Commit:
		o := outcome{Gone: r.Gone, Stale: r.Stale, Accepted: r.Accepted, Splits: r.Splits, RecordsMoved: r.RecordsMoved, KeepLabel: r.Keep.Label, Load: r.Load}
		for _, cell := range r.Moved {
			o.Moved = append(o.Moved, hex.EncodeToString(wire.MarshalBucket(core.NewBucket(cell.Label, cell.Records))))
		}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		return o
	case core.Removal:
		o := outcome{Gone: r.Gone, Removed: r.Removed, KeepLabel: r.Keep.Label, Load: r.Load}
		if r.Removed && r.Load < opTheta {
			o.Keep = hex.EncodeToString(wire.MarshalBucket(r.Keep))
		}
		return o
	case core.Retired:
		o := outcome{Gone: !r.Done, KeepLabel: r.Bucket.Label, Load: r.Bucket.Load()}
		if r.Done {
			o.Keep = hex.EncodeToString(wire.MarshalBucket(r.Bucket))
		}
		return o
	case nil:
		// A clear answers nothing.
		return outcome{}
	}
	t.Fatalf("op result is a %T", result)
	return outcome{}
}

// stored returns the encoding of the bucket stored under key, "" when absent.
func stored(t *testing.T, d dht.DHT, key dht.Key) string {
	t.Helper()
	v, ok, err := d.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		return ""
	}
	b, isBucket := v.(core.Bucket)
	if !isBucket {
		t.Fatalf("Get(%q) = %T, want a bucket", key, v)
	}
	return hex.EncodeToString(wire.MarshalBucket(b))
}

// pair runs every op twice: as an op on one substrate, as Apply(key, op.Run)
// on its twin.
type pair struct {
	t             *testing.T
	asOp, asApply dht.DHT
}

// do executes op on both, holds them to the same outcome and the same stored
// bytes, and returns the result.
func (p pair) do(stage string, key dht.Key, op dht.Op) any {
	p.t.Helper()
	got, gotErr := dht.Do(p.asOp, key, op)
	want, wantErr := dht.DoApply(p.asApply, key, op)
	if gotErr != nil || wantErr != nil {
		p.t.Fatalf("%s: Do: %v; Apply(op.Run): %v", stage, gotErr, wantErr)
	}
	if g, w := fmt.Sprintf("%+v", outcomeOf(p.t, got)), fmt.Sprintf("%+v", outcomeOf(p.t, want)); g != w {
		p.t.Fatalf("%s:\n         Do reports %s\nApply(op.Run) reports %s", stage, g, w)
	}
	if g, w := stored(p.t, p.asOp, key), stored(p.t, p.asApply, key); g != w {
		p.t.Fatalf("%s:\n         Do stored %s\nApply(op.Run) stored %s", stage, g, w)
	}
	return got
}

func (p pair) put(key dht.Key, b core.Bucket) {
	p.t.Helper()
	for _, d := range []dht.DHT{p.asOp, p.asApply} {
		if err := d.Put(key, b); err != nil {
			p.t.Fatal(err)
		}
	}
}

// TestOpEquivalence: on every substrate row, executing an op and running
// Apply(key, op.Run) leave identical stored bytes and report identical
// outcomes, through everything a leaf can answer — an append that extends it,
// one that splits it, one sent under the label that split and landing in the
// part that stayed, a stale record, a leaf that does not cover the record or
// was never there, a removal that leaves the bucket above θmerge and one that
// leaves it below (the bucket comes back), a record that is not there.
func TestOpEquivalence(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	for _, row := range opRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			if strings.Contains(row.name, "tcp") {
				if testing.Short() {
					t.Skip("socket-backed equivalence is not short")
				}
				t.Parallel()
			}
			p := pair{t, row.new(t), row.new(t)}
			rng := rand.New(rand.NewSource(dhttest.SeedFromEnv(1)))
			root := bitlabel.Root(2)
			key := dht.Key("mlight/" + bitlabel.Name(root, 2).Key())
			p.put(key, core.Bucket{Label: root})
			rec := func(i int) spatial.Record {
				return spatial.Record{Key: spatial.Point{rng.Float64(), rng.Float64()}, Data: fmt.Sprintf("r%d", i)}
			}
			appendOp := func(recs ...spatial.Record) core.AppendOp {
				return core.AppendOp{Rule: opRule, Records: recs}
			}
			// After the split, appends carry a θsplit no leaf here reaches, so
			// the leaf every later op meets is the part that stayed.
			roomy := opRule
			roomy.ThetaSplit = 1 << 20
			grow := func(recs ...spatial.Record) core.AppendOp {
				return core.AppendOp{Rule: roomy, Records: recs}
			}

			if c := p.do("append to an absent key", "mlight/absent", appendOp(rec(-1))).(core.Commit); !c.Gone || !c.Keep.Label.IsEmpty() {
				t.Fatalf("append to an absent key: %+v; want gone, with the empty label", c)
			}
			var all []spatial.Record
			for i := 0; i < opRule.ThetaSplit; i++ {
				all = append(all, rec(i))
				if c := p.do(fmt.Sprintf("append %d", i), key, appendOp(all[i])).(core.Commit); c.Accepted != 1 || c.Splits != 0 || c.Load != i+1 {
					t.Fatalf("append %d: %+v", i, c)
				}
			}
			split := p.do("the append that splits", key, appendOp(rec(8), rec(9))).(core.Commit)
			if split.Splits == 0 || len(split.Moved) == 0 || split.Keep.Label == root {
				t.Fatalf("ten records under θsplit 8 did not split: %+v", split)
			}
			// The split is a move: it ends with the clear its driver sends
			// once the moved pieces are installed.
			var moved []bitlabel.Label
			for _, c := range split.Moved {
				moved = append(moved, c.Label)
			}
			p.do("the clear that ends the split", key, core.ClearOp{Labels: moved})
			leaf := split.Keep.Label
			region, err := spatial.RegionOf(leaf, 2)
			if err != nil {
				t.Fatal(err)
			}
			inside := spatial.Record{Key: spatial.Point{(region.Lo[0] + region.Hi[0]) / 2, (region.Lo[1] + region.Hi[1]) / 2}, Data: "inside"}
			outside := spatial.Record{Key: spatial.Point{1 - inside.Key[0], 1 - inside.Key[1]}, Data: "outside"}
			if region.Contains(outside.Key) {
				t.Fatalf("%v and %v both lie in %v", inside.Key, outside.Key, leaf)
			}
			if c := p.do("append under the label that split", key, grow(inside)).(core.Commit); c.Gone || c.Accepted != 1 || c.Keep.Label != leaf {
				t.Fatalf("append under a split leaf's old label, into the part that stayed: %+v; want it landed in %v", c, leaf)
			}
			if c := p.do("a record the stored leaf does not cover", key, grow(outside)).(core.Commit); !c.Gone || c.Accepted != 0 || c.Keep.Label != leaf {
				t.Fatalf("append of a record outside the stored leaf: %+v; want gone, reporting %v", c, leaf)
			}
			if c := p.do("a batch with a stale record", key, grow(outside, inside)).(core.Commit); len(c.Stale) != 1 || c.Stale[0] != 0 || c.Accepted != 1 {
				t.Fatalf("batch of a stale and a covered record: %+v", c)
			}

			remove := func(r spatial.Record) core.RemoveOp {
				return core.RemoveOp{Key: r.Key, Data: r.Data, MergeThreshold: opTheta}
			}
			if out := p.do("remove under the label that split", key, remove(inside)).(core.Removal); !out.Removed || out.Keep.Label != leaf {
				t.Fatalf("remove from a split leaf under its old label: %+v; want it removed from the part that stayed, %v", out, leaf)
			}
			if out := p.do("remove where the stored leaf does not cover", key, remove(outside)).(core.Removal); !out.Gone || out.Removed || out.Keep.Label != leaf {
				t.Fatalf("remove of a key outside the stored leaf: %+v; want gone, reporting %v", out, leaf)
			}
			if out := p.do("remove from an absent key", "mlight/absent", remove(inside)).(core.Removal); !out.Gone || !out.Keep.Label.IsEmpty() {
				t.Fatalf("remove at an absent key: %+v; want gone, with the empty label", out)
			}
			if out := p.do("remove a record that is not there", key, remove(spatial.Record{Key: inside.Key, Data: "never stored"})).(core.Removal); out.Removed || out.Gone {
				t.Fatalf("remove of an absent record: %+v", out)
			}
			// Fill the leaf to θmerge+1 and take it down to nothing: the first
			// removal leaves θmerge records and needs no bucket, every later
			// one brings the bucket back.
			v, _, err := p.asApply.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			held := v.(core.Bucket).Records()
			for len(held) <= opTheta {
				held = append(held, inside)
				p.do("refill", key, grow(inside))
			}
			for i, r := range held {
				out := p.do(fmt.Sprintf("remove %d of %d", i, len(held)), key, remove(r)).(core.Removal)
				left := len(held) - i - 1
				if !out.Removed || out.Load != left || (left < opTheta && out.Keep.Load() != left) {
					t.Fatalf("remove %d of %d: %+v", i, len(held), out)
				}
			}
		})
	}
}

// TestOpVersusClosureAppends: appends to one leaf, half of the writers sending
// the op and half the closure, on every row: no record is lost, so every
// writer saw the others' (under -race, without a data race).
func TestOpVersusClosureAppends(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	rule := opRule
	rule.ThetaSplit = 1 << 20
	for _, row := range opRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			if strings.Contains(row.name, "tcp") {
				if testing.Short() {
					t.Skip("socket-backed equivalence is not short")
				}
				t.Parallel()
			}
			d := row.new(t)
			root := bitlabel.Root(2)
			key := dht.Key("mlight/" + bitlabel.Name(root, 2).Key())
			if err := d.Put(key, core.Bucket{Label: root}); err != nil {
				t.Fatal(err)
			}
			const writers, each = 6, 15
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						op := core.AppendOp{Rule: rule, Records: []spatial.Record{{
							Key: spatial.Point{float64(w) / writers, float64(i) / each}, Data: fmt.Sprintf("w%d-%d", w, i),
						}}}
						var res any
						var err error
						if w%2 == 0 {
							res, err = dht.Do(d, key, op)
						} else {
							res, err = dht.DoApply(d, key, op)
						}
						if c, _ := res.(core.Commit); err != nil || c.Accepted != 1 {
							errs <- fmt.Errorf("writer %d append %d: %+v, %v", w, i, res, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			v, _, err := d.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			b := v.(core.Bucket)
			seen := make(map[string]bool)
			for i := 0; i < b.Load(); i++ {
				seen[b.DataAt(i)] = true
			}
			if b.Load() != writers*each || len(seen) != writers*each {
				t.Fatalf("%d records (%d distinct) after %d appends: a writer lost another's update", b.Load(), len(seen), writers*each)
			}
		})
	}
}

// TestByteDHTOpRerunReportsTheStoredRun is TestByteDHTRerunReportsTheStoredRun
// for an op: a first run against bytes that are no bucket, discarded, leaves
// nothing behind in what the stored run reports.
func TestByteDHTOpRerunReportsTheStoredRun(t *testing.T) {
	flaky := dhttest.NewFlaky(dht.MustNewLocal(4))
	d := wire.NewByteDHT(flaky, wire.BucketCodec{})
	root := bitlabel.Root(2)
	if err := d.Put("k", core.Bucket{Label: root}); err != nil {
		t.Fatal(err)
	}
	flaky.RerunNext("k", []byte("?garbage"), true)
	res, err := dht.Do(d, "k", core.AppendOp{Rule: opRule, Records: []spatial.Record{{Key: spatial.Point{0.5, 0.5}, Data: "x"}}})
	if c, _ := res.(core.Commit); err != nil || c.Accepted != 1 || c.Load != 1 {
		t.Fatalf("the stored run succeeded, Do reported %+v, %v", res, err)
	}
}

// hostileOps are op bodies no index sends. Each starts from a well-formed
// append or remove and breaks one thing.
func hostileOps() map[string][]byte {
	good := core.AppendOp{Rule: opRule, Records: []spatial.Record{{Key: spatial.Point{0.25, 0.75}, Data: "x"}}}
	withRule := func(edit func(*core.SplitRule)) []byte {
		op := good
		edit(&op.Rule)
		return core.EncodeOp(op)
	}
	withRecords := func(recs ...spatial.Record) []byte {
		op := good
		op.Records = recs
		return core.EncodeOp(op)
	}
	enc := core.EncodeOp(good)
	remove := core.EncodeOp(core.RemoveOp{Key: spatial.Point{0.25, 0.75}, Data: "x", MergeThreshold: opTheta})
	// The record count is the uvarint before the one record's 1+16+1+1 bytes.
	manyRecords := append(append([]byte(nil), enc[:len(enc)-20]...), 0xFF, 0xFF, 0xFF, 0x07)
	manyRecords = append(manyRecords, enc[len(enc)-19:]...)
	piece := core.NewBucket(bitlabel.MustParse("0011"), []spatial.Record{{Key: spatial.Point{0.75, 0.25}, Data: "p"}})
	install := core.EncodeOp(core.InstallOp{Rule: opRule, Piece: piece})
	outside := core.EncodeOp(core.InstallOp{Rule: opRule, Piece: core.NewBucket(piece.Label, []spatial.Record{{Key: spatial.Point{0.25, 0.25}}})})
	retire := core.EncodeOp(core.RetireOp{Label: piece.Label})
	clear := core.EncodeOp(core.ClearOp{Labels: []bitlabel.Label{piece.Label}})
	return map[string][]byte{
		"install: truncated":              install[:len(install)-3],
		"install: trailing bytes":         append(append([]byte(nil), install...), 0),
		"install: piece outside its cell": outside,
		"install: piece above the root":   core.EncodeOp(core.InstallOp{Rule: opRule, Piece: core.Bucket{Label: bitlabel.MustParse("00")}}),
		"retire: trailing bytes":          append(append([]byte(nil), retire...), 0),
		"retire: truncated":               retire[:5],
		"clear: truncated":                clear[:len(clear)-1],
		"clear: more labels than bytes":   append([]byte{clear[0], 0, 0x7F}, clear[3:]...),
		"empty":                           {},
		"unknown kind":                    {9},
		"truncated rule":                  enc[:3],
		"truncated record":                enc[:len(enc)-4],
		"trailing bytes":                  append(append([]byte(nil), enc...), 0),
		"zero dims":                       withRule(func(r *core.SplitRule) { r.Dims = 0 }),
		"zero depth":                      withRule(func(r *core.SplitRule) { r.MaxDepth = 0 }),
		"depth past the label":            withRule(func(r *core.SplitRule) { r.MaxDepth = 62 }),
		"zero θsplit":                     withRule(func(r *core.SplitRule) { r.ThetaSplit = 0 }),
		"huge θsplit":                     withRule(func(r *core.SplitRule) { r.ThetaSplit = math.MaxInt64 }),
		"unknown strategy":                withRule(func(r *core.SplitRule) { r.Strategy = 9 }),
		"data-aware without ε":            withRule(func(r *core.SplitRule) { r.Strategy = core.SplitDataAware; r.Epsilon = 0 }),
		"three coordinates":               withRecords(spatial.Record{Key: spatial.Point{0.1, 0.2, 0.3}}),
		"mixed dimensions":                withRecords(spatial.Record{Key: spatial.Point{0.1, 0.2}}, spatial.Record{Key: spatial.Point{0.3}}),
		"outside the unit cube":           withRecords(spatial.Record{Key: spatial.Point{0.5, 1.5}}),
		"negative coordinate":             withRecords(spatial.Record{Key: spatial.Point{-0.1, 0.5}}),
		"NaN coordinate":                  withRecords(spatial.Record{Key: spatial.Point{math.NaN(), 0.5}}),
		"infinite coordinate":             withRecords(spatial.Record{Key: spatial.Point{math.Inf(1), 0.5}}),
		"more records than bytes":         manyRecords,
		"remove: truncated":               remove[:len(remove)-3],
		"remove: trailing bytes":          append(append([]byte(nil), remove...), 0),
		"remove: no coordinates":          core.EncodeOp(core.RemoveOp{Key: spatial.Point{}}),
		"remove: outside the cube":        core.EncodeOp(core.RemoveOp{Key: spatial.Point{2, 2}}),
	}
}

// TestOpRefusesHostileBytes: the op decoder runs on a daemon. An op it refuses
// fails with a typed error before the stored value is looked at — garbage here,
// which running anything would trip over — and writes nothing.
func TestOpRefusesHostileBytes(t *testing.T) {
	for name, body := range hostileOps() {
		next, write, result, err := wire.Op{Body: body}.Run([]byte("not a bucket"), true)
		if !errors.Is(err, wire.ErrMalformed) || !errors.Is(err, core.ErrOp) || write || next != nil || result != nil {
			t.Errorf("%s: Run = %v, %v, %v, %v; want a refusal wrapping wire.ErrMalformed and core.ErrOp", name, next, write, result, err)
		}
	}
	// A well-formed op over a stored value that is no bucket is refused too.
	good := core.EncodeOp(core.AppendOp{Rule: opRule, Records: []spatial.Record{{Key: spatial.Point{0.25, 0.75}}}})
	for _, cur := range []any{[]byte("not a bucket"), 42} {
		if _, write, _, err := (wire.Op{Body: good}).Run(cur, true); err == nil || write {
			t.Errorf("a good op over %T %v: write %v, err %v", cur, cur, write, err)
		}
	}
}

// TestOpRefusedAtTheOwner sends hostile ops through a socket-backed overlay:
// the daemon side answers each with an error and the stored bucket, its version
// and its bytes stay what they were.
func TestOpRefusedAtTheOwner(t *testing.T) {
	dhttest.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("socket-backed hostile-bytes suite is not short")
	}
	o := overlayOn(t, "chord", true)
	d := wire.NewByteDHT(o, wire.BucketCodec{})
	before := core.NewBucket(bitlabel.Root(2), []spatial.Record{{Key: spatial.Point{0.5, 0.5}, Data: "kept"}})
	if err := d.Put("k", before); err != nil {
		t.Fatal(err)
	}
	for name, body := range hostileOps() {
		if _, err := dht.Do(o, "k", wire.Op{Body: body}); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: the owner answered %v, want a malformed-op error", name, err)
		}
	}
	v, _, err := d.Get("k")
	if err != nil || !bytes.Equal(wire.MarshalBucket(v.(core.Bucket)), wire.MarshalBucket(before)) {
		t.Fatalf("after the hostile ops the key holds %v, %v", v, err)
	}
}

// goldenOps are the byte forms pinned in testdata/golden_ops.txt: the two ops,
// and the replies in each of their shapes. leaf's cell is [0.75, 1) × [0.25,
// 0.5): it covers neither of recs, and does cover inLeaf.
func goldenOps() map[string][]byte {
	root, leaf := bitlabel.Root(2), bitlabel.MustParse("0011011")
	recs := []spatial.Record{{Key: spatial.Point{0.25, 0.75}, Data: "x"}, {Key: spatial.Point{0.5, 0.5}, Data: ""}}
	inLeaf := spatial.Record{Key: spatial.Point{0.875, 0.375}, Data: "x"}
	appendOp := core.AppendOp{Rule: opRule, Records: recs}
	removeOp := core.RemoveOp{Key: recs[0].Key, Data: "x", MergeThreshold: opTheta}
	// The removals that land run at a key inside leaf; a reply does not
	// carry the key, so their bytes are those of any key leaf covers.
	removeIn := removeOp
	removeIn.Key = inLeaf.Key
	run := func(op core.Op, stored core.Bucket) []byte {
		_, _, result, err := wire.Op{Body: core.EncodeOp(op)}.Run(wire.MarshalBucket(stored), true)
		if err != nil {
			panic(err)
		}
		return result.([]byte)
	}
	full := core.NewBucket(root, nil)
	for i := 0; i < opRule.ThetaSplit; i++ {
		full = full.Append(spatial.Record{Key: spatial.Point{float64(i) / 8, float64(i%3) / 3}, Data: fmt.Sprint(i)})
	}
	five := core.NewBucket(leaf, []spatial.Record{inLeaf, recs[1], recs[1], recs[1], recs[1]})
	// A split leaves the bucket it started from marked until its pieces are
	// installed (core/move.go): the split's stored bytes, and an append or a
	// remove that meets one of its pieces, answered with the piece.
	next, _, res, err := (wire.Op{Body: core.EncodeOp(appendOp)}).Run(wire.MarshalBucket(full), true)
	if err != nil {
		panic(err)
	}
	marked := next.([]byte)
	c, err := appendOp.DecodeResult(res.([]byte))
	if err != nil {
		panic(err)
	}
	moved := c.(core.Commit).Moved[0].Records[0]
	runOn := func(op core.Op, stored []byte) []byte {
		_, _, result, err := wire.Op{Body: core.EncodeOp(op)}.Run(stored, true)
		if err != nil {
			panic(err)
		}
		return result.([]byte)
	}
	half := bitlabel.MustParse("0010")
	piece := core.NewBucket(half.Sibling(), []spatial.Record{{Key: spatial.Point{0.75, 0.25}, Data: "p"}})
	install := core.InstallOp{Rule: opRule, Piece: piece}
	absorb := core.InstallOp{Rule: opRule, Piece: piece, Absorb: true}
	retire := core.RetireOp{Label: leaf, Expect: 1}
	clear := core.ClearOp{Labels: []bitlabel.Label{leaf, half}}
	return map[string][]byte{
		"op/install":             core.EncodeOp(install),
		"op/install-absorb":      core.EncodeOp(absorb),
		"op/retire":              core.EncodeOp(retire),
		"op/clear":               core.EncodeOp(clear),
		"bucket/split-marked":    marked,
		"commit/installed":       run(install, core.Bucket{}),
		"commit/absorbed":        run(absorb, core.NewBucket(half, nil)),
		"commit/install-refused": run(install, five),
		"commit/hop":             runOn(core.AppendOp{Rule: opRule, Records: []spatial.Record{moved}}, marked),
		"removal/hop":            runOn(core.RemoveOp{Key: moved.Key, Data: moved.Data, MergeThreshold: opTheta}, marked),
		"retired/done":           run(core.RetireOp{Label: leaf}, five),
		"retired/refused":        run(retire, core.Bucket{Label: root}),
		"op/append":              core.EncodeOp(appendOp),
		"op/remove":              core.EncodeOp(removeOp),
		"commit/extended":        run(appendOp, core.Bucket{Label: root}),
		"commit/gone":            run(appendOp, core.Bucket{Label: leaf}),
		"commit/stale":           run(core.AppendOp{Rule: opRule, Records: []spatial.Record{recs[0], inLeaf}}, core.Bucket{Label: leaf}),
		"commit/split":           run(appendOp, full),
		"removal/label-and-load": run(removeIn, five),
		"removal/with-bucket":    run(removeIn, core.NewBucket(leaf, []spatial.Record{inLeaf, recs[1]})),
		"removal/not-there":      run(removeIn, core.Bucket{Label: leaf}),
		"removal/gone":           run(removeOp, core.Bucket{Label: leaf}),
	}
}

// TestGoldenOpBytes holds the op byte forms to the committed bytes: a daemon
// and a client of different builds speak exactly these.
func TestGoldenOpBytes(t *testing.T) {
	f, err := os.Open("testdata/golden_ops.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("golden line without a tab: %q", line)
		}
		if golden[name], err = hex.DecodeString(hexBytes); err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	now := goldenOps()
	for name, got := range now {
		if want, ok := golden[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", name, got, want)
		}
	}
	for name, body := range golden {
		if _, ok := now[name]; !ok {
			t.Errorf("golden %s names nothing", name)
		}
		if op, isOp := strings.CutPrefix(name, "op/"); isOp {
			decoded, err := core.DecodeOp(body)
			if err != nil || !bytes.Equal(core.EncodeOp(decoded), body) {
				t.Errorf("%s op does not round-trip: %v", op, err)
			}
		}
	}
}
