package dhttest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// CounterOp is the kit's dht.Op: add Add to the int stored under the key (an
// absent key counts as zero) and report the sum. With Cap set, a sum above it
// is refused — nothing is written and the result is -1 — and with Fail set the
// run fails. It is registered with the transport codec, so the op sections run
// over real sockets as they do in process.
type CounterOp struct {
	Add  int
	Cap  int
	Fail bool
}

// ErrCounterOp is what a CounterOp with Fail set fails with.
var ErrCounterOp = errors.New("dhttest: counter op told to fail")

func init() { transport.RegisterType(CounterOp{}) }

// Run implements dht.Op.
func (op CounterOp) Run(cur any, exists bool) (next any, write bool, result any, err error) {
	n, isInt := cur.(int)
	switch {
	case exists && !isInt:
		return nil, false, nil, fmt.Errorf("dhttest: counter op on a %T", cur)
	case op.Fail:
		return nil, false, nil, ErrCounterOp
	case op.Cap > 0 && n+op.Add > op.Cap:
		return nil, false, -1, nil
	}
	return n + op.Add, true, n + op.Add, nil
}

// runOps is RunConformance's op section: on every substrate dht.Do and
// Apply(key, op.Run) are the same operation — the same result, the same stored
// value, the same refusal to write — whether the substrate executes ops, is a
// decorator that forwards them, or has never heard of them; and an op is
// atomic against closure writers of its key.
func runOps(t *testing.T, newDHT Factory) {
	t.Run("OpMatchesApply", func(t *testing.T) {
		asOp, asApply := newDHT(t), newDHT(t)
		steps := []CounterOp{
			{Add: 5},           // creates
			{Add: 3},           // mutates
			{Add: 10, Cap: 12}, // refused: writes nothing
			{Fail: true},       // fails: writes nothing
			{Add: 4, Cap: 12},  // lands exactly on the cap
		}
		for i, op := range steps {
			got, gotErr := dht.Do(asOp, "op", op)
			want, wantErr := dht.DoApply(asApply, "op", op)
			if (gotErr != nil) != (wantErr != nil) || got != want {
				t.Fatalf("step %d %+v: Do = %v, %v; Apply(op.Run) = %v, %v", i, op, got, gotErr, want, wantErr)
			}
			if op.Fail != (gotErr != nil) {
				t.Fatalf("step %d %+v: Do = %v, %v", i, op, got, gotErr)
			}
			a, aok, aerr := asOp.Get("op")
			b, bok, berr := asApply.Get("op")
			if aerr != nil || berr != nil || a != b || aok != bok {
				t.Fatalf("step %d %+v: stored %v, %v, %v by Do and %v, %v, %v by Apply(op.Run)", i, op, a, aok, aerr, b, bok, berr)
			}
		}
		if v, _, err := asOp.Get("op"); err != nil || v != 12 {
			t.Fatalf("after the steps: %v, %v; want 12", v, err)
		}
	})

	t.Run("OpVersusClosureWriters", func(t *testing.T) {
		d := newDHT(t)
		const writers, each = 8, 25
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					var err error
					if w%2 == 0 {
						_, err = dht.Do(d, "contended", CounterOp{Add: 1})
					} else {
						err = d.Apply("contended", func(cur any, _ bool) (any, bool) {
							n, _ := cur.(int)
							return n + 1, true
						})
					}
					if err != nil {
						errs <- err
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
		if v, _, err := d.Get("contended"); err != nil || v != writers*each {
			t.Fatalf("counter = %v, %v; want %d: an op and a closure lost each other's update", v, err, writers*each)
		}
	})
}

// countJournal counts the records a node journals.
type countJournal struct {
	mu   sync.Mutex
	recs int
}

func (j *countJournal) Append(recs []dht.WALRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs += len(recs)
	return nil
}

func (j *countJournal) ShouldCompact() bool { return false }

func (j *countJournal) Compact(map[dht.Key]any) error { return nil }

func (j *countJournal) count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recs
}

// version asks key's owner for the key's version.
func (c *cluster) version(t *testing.T, owner transport.NodeID, key dht.Key) uint64 {
	t.Helper()
	resp, err := c.Net().Call(c.Client(), owner, dht.GetVerReq{Key: key})
	snap, ok := resp.(dht.GetVerResp)
	if err != nil || !ok {
		t.Fatalf("GetVerReq(%q) at %s = %v, %v", key, owner, resp, err)
	}
	return snap.Ver
}

// ownerOf returns the node that owns key by routing.
func (c *cluster) ownerOf(t *testing.T, key dht.Key) *overlay.Node {
	t.Helper()
	addr, err := c.Owner(key)
	if err != nil {
		t.Fatalf("Owner(%q): %v", key, err)
	}
	n, ok := c.NodeAt(transport.NodeID(addr))
	if !ok {
		t.Fatalf("owner %q of %q is not a node of the cluster", addr, key)
	}
	return n
}

// RunOverlayOps pins the op message on one protocol — an op crosses as an opReq
// on every transport, the simulated network's included: what it costs, what it
// leaves at the owner when it changes nothing, and what becomes of it when the
// member it was sent to declines, dies, or answers into the void.
func RunOverlayOps(t *testing.T, f OverlayFixture) {
	t.Helper()

	t.Run("OneRPCAndTheResult", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{})
		want := c.load(t, "ok", 60)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		for k, v := range want {
			n := d.rpcs(func() {
				if got, err := d.Do(k, CounterOp{Add: 1000}); err != nil || got != v+1000 {
					t.Fatalf("Do(%q) = %v, %v; want %d", k, got, err, v+1000)
				}
			})
			if n != 1 {
				t.Fatalf("Do(%q) cost %d RPCs with every owner in the view, want 1", k, n)
			}
			want[k] = v + 1000
		}
		c.checkGets(t, "routed read of what ops wrote", want)
		if hops, declined, failed := d.Hops.Load(), d.DirectDeclined.Load(), d.DirectFailed.Load(); hops != 0 || declined != 0 || failed != 0 {
			t.Errorf("client routed %d hops; %s", hops, d.DirectSummary())
		}
	})

	// The closure path rewrites and re-journals a bucket it did not change; an
	// op that says it wrote nothing leaves the value, its version and the
	// journal alone — sent by a dialed client or by the overlay that hosts the
	// nodes, which on the simulated network could carry the closure inline.
	t.Run("UnchangedWritesNothing", func(t *testing.T) {
		for _, caller := range []string{"dialed", "hosted"} {
			t.Run(caller, func(t *testing.T) {
				c := f.build(t, 4, overlay.Config{})
				d := c.Overlay
				if caller == "dialed" {
					d = f.dial(t, c, overlay.Config{Seeds: c.addrs}).Overlay
				}
				if err := d.Put("nk", 7); err != nil {
					t.Fatal(err)
				}
				owner := c.ownerOf(t, "nk")
				journal := &countJournal{}
				owner.SetJournal(journal)
				ver := c.version(t, owner.Addr(), "nk")
				if got, err := d.Do("nk", CounterOp{Add: 10, Cap: 12}); err != nil || got != -1 {
					t.Fatalf("refused op = %v, %v; want -1", got, err)
				}
				if _, err := d.Do("nk", CounterOp{Fail: true}); err == nil {
					t.Fatal("failing op reported success")
				}
				if _, err := d.Do("nk-absent", CounterOp{Add: 10, Cap: 5}); err != nil {
					t.Fatal(err)
				}
				if n, v := journal.count(), c.version(t, owner.Addr(), "nk"); n != 0 || v != ver {
					t.Fatalf("ops that wrote nothing journaled %d records and moved the version %d → %d", n, ver, v)
				}
				if _, ok, err := c.Get("nk-absent"); err != nil || ok {
					t.Fatalf("a refused op created its key: %v, %v", ok, err)
				}
				if got, err := d.Do("nk", CounterOp{Add: 1}); err != nil || got != 8 {
					t.Fatalf("writing op = %v, %v; want 8", got, err)
				}
				if n, v := journal.count(), c.version(t, owner.Addr(), "nk"); n != 1 || v != ver+1 {
					t.Fatalf("a writing op journaled %d records and moved the version %d → %d; want 1 and +1", n, ver, v)
				}
			})
		}
	})

	// A declined op was not executed: it is routed, silently, and runs once.
	t.Run("DeclinedIsRoutedOnce", func(t *testing.T) {
		c := f.build(t, 5, overlay.Config{})
		want := c.load(t, "jk", 300)
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		var taken []dht.Key
		for tries := 0; len(taken) == 0 && tries < 4; tries++ {
			taken = c.ownedBy(t, want, c.join(t).Addr())
		}
		if len(taken) == 0 {
			t.Fatal("four joiners took over none of 300 keys")
		}
		k := taken[0]
		if got, err := d.Do(k, CounterOp{Add: 1000}); err != nil || got != want[k]+1000 {
			t.Fatalf("Do(%q) after the join = %v, %v; want %d", k, got, err, want[k]+1000)
		}
		if declined, failed := d.DirectDeclined.Load(), d.DirectFailed.Load(); declined != 1 || failed != 0 {
			t.Fatalf("op on a key the joiner took over: %s; want 1 declined, none failed", d.DirectSummary())
		}
		if v, _, err := c.Get(k); err != nil || v != want[k]+1000 {
			t.Fatalf("after a declined and routed op the key holds %v, %v; want %d (run once)", v, err, want[k]+1000)
		}
		if n := d.rpcs(func() {
			if _, err := d.Do(k, CounterOp{Add: 1}); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Fatalf("second op cost %d RPCs, want 1 sent direct to the joiner", n)
		}
	})

	// A failed op may have been executed: it is not sent again here. The
	// member leaves the view, the caller gets the transport's retryable error,
	// and a retry layer above decides — at least once, as an ApplyFunc runs.
	for _, arm := range []struct {
		name     string
		executed bool
	}{{"FailedBeforeExecutionIsNotResent", false}, {"FailedAfterExecutionIsNotResent", true}} {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			c := f.build(t, 4, overlay.Config{})
			d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
			if err := d.Put("fk", 1); err != nil {
				t.Fatal(err)
			}
			if arm.executed {
				d.net.loseReply = isOpReq
			} else {
				d.net.lose = isOpReq
			}
			var err error
			n := d.rpcs(func() { _, err = d.Do("fk", CounterOp{Add: 1}) })
			d.net.lose, d.net.loseReply = nil, nil
			if err == nil || !dht.DefaultClassify(err) {
				t.Fatalf("Do over a lost call = %v; want a retryable error", err)
			}
			if n != 1 || d.DirectFailed.Load() != 1 || d.ViewSize() != 3 || d.Lookups.Load() != 0 {
				t.Fatalf("a failed op cost %d RPCs, %d lookups: %s; want 1 RPC, no routed resend, the member forgotten", n, d.Lookups.Load(), d.DirectSummary())
			}
			want := 1
			if arm.executed {
				want = 2
			}
			d.mustGet(t, "after the failed op", "fk", want)

			// The same loss under the retry layer: the op is run again, so
			// one that was executed and lost its reply is executed twice.
			res := dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
			lost := false
			once := func(req any) bool {
				if lost || !isOpReq(req) {
					return false
				}
				lost = true
				return true
			}
			if arm.executed {
				d.net.loseReply = once
			} else {
				d.net.lose = once
			}
			got, err := dht.Do(res, "fk", CounterOp{Add: 10})
			d.net.lose, d.net.loseReply = nil, nil
			want += 10
			if arm.executed {
				want += 10
			}
			if err != nil || got != want {
				t.Fatalf("Do under Resilient = %v, %v; want %d", got, err, want)
			}
		})
	}

	// An op routed to a key's heir while the crashed owner's replica has not
	// been promoted yet takes the replica as its input, and its write is the
	// promotion.
	t.Run("CrashWindowReplicaIsTheInput", func(t *testing.T) {
		c := f.build(t, 6, overlay.Config{Replication: 2})
		want := c.load(t, "ck", 200)
		c.Stabilize(2) // settle replica placement
		d := f.dial(t, c, overlay.Config{Seeds: c.addrs})
		victim := c.loaded(t).Addr()
		k := c.ownedBy(t, want, victim)[0]
		if err := c.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		// Routing maintenance only: the heir comes to own the key, and its
		// copy stays a replica.
		for i := 0; i < 3; i++ {
			c.Router().Tick()
		}
		heir := c.ownerOf(t, k)
		if _, primary := heir.StoreSnapshot()[k]; primary {
			t.Skipf("%s already holds %q as a primary", heir.Addr(), k)
		}
		if v, held := heir.ReplicaSnapshot()[k]; !held || v != want[k] {
			t.Fatalf("heir %s holds replica %v, %v of %q; want %d", heir.Addr(), v, held, k, want[k])
		}
		res := dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 4, Sleep: dht.NoSleep}, nil)
		if got, err := dht.Do(res, k, CounterOp{Add: 1000}); err != nil || got != want[k]+1000 {
			t.Fatalf("Do(%q) in the crash window = %v, %v; want %d", k, got, err, want[k]+1000)
		}
		if v, primary := heir.StoreSnapshot()[k]; !primary || v != want[k]+1000 {
			t.Fatalf("after the op the heir's primary is %v, %v; want %d", v, primary, want[k]+1000)
		}
		if _, held := heir.ReplicaSnapshot()[k]; held {
			t.Error("the promoted key is still shelved as a replica")
		}
	})
}

// isOpReq reports whether req is the overlay's op message; the type is not
// exported, its name is what traces and the benchmark harness see.
func isOpReq(req any) bool { return fmt.Sprintf("%T", req) == "overlay.opReq" }
