package mlight_test

import (
	"slices"
	"sync"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

// critMeter prices a client's latency as the messages on its critical path:
// the ledger's crit_msgs. One message is one direction, so a frame and its
// reply are two, and under any constant one-way delay d the client waits
// crit_msgs × d — the paper's rounds of DHT-lookups (Fig. 7b), priced by
// routing depth.
//
// Calls made one after another add up: every frame sent outside a batch
// call costs its two messages. A batch call (GetBatch, PutBatch) sends its
// keys in parallel, so it costs only its costliest branch; critDHT, between
// the index and its substrate, opens and closes the round, and the shape's
// branches function splits the round's frames into branches.
//
// InsertBatch overlaps its lookups and its appends through dht.Fan, outside
// any batch call. The meter cannot tell those branches apart, so the batch
// phase charges them one after another: its crit_msgs is an upper bound.
type critMeter struct {
	branches func(round []sentFrame) []int

	mu    sync.Mutex
	open  bool
	round []sentFrame
	msgs  int
}

// sentFrame is one client frame: its request type and its destination.
type sentFrame struct {
	typ string
	to  transport.NodeID
}

// frame charges one frame: two messages now, or a place in the open round.
func (m *critMeter) frame(f sentFrame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.open {
		m.round = append(m.round, f)
		return
	}
	m.msgs += 2
}

// batch runs one batch call as a round: it costs its costliest branch.
func (m *critMeter) batch(call func()) {
	m.mu.Lock()
	if m.open {
		m.mu.Unlock()
		panic("critMeter: two batch calls at once")
	}
	m.open, m.round = true, nil
	m.mu.Unlock()

	call()

	m.mu.Lock()
	defer m.mu.Unlock()
	most := 0
	for _, n := range m.branches(m.round) {
		most = max(most, n)
	}
	m.msgs += 2 * most
	m.open, m.round = false, nil
}

// take returns the messages charged since the last take.
func (m *critMeter) take() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.msgs
	m.msgs = 0
	return n
}

// keyBranches splits a round on a hosting Chord ring into its keys. There a
// batch is one call per key (dht.FanGets, or PutBatch's pool over Put), run
// one at a time under WithMaxInFlight(1). A key's frames are its route steps
// — Chord sends at least one, to the entry node — then its store-plane
// request and the owner's replica pushes, so a key ends where the next route
// step follows a frame that is not one.
func keyBranches(round []sentFrame) []int {
	const step = "chord.lookupStepReq"
	var out []int
	for i, f := range round {
		if i == 0 || f.typ == step && round[i-1].typ != step {
			out = append(out, 0)
		}
		out[len(out)-1]++
	}
	return out
}

// daemonBranches splits a dialed round by daemon: the client sends each
// daemon its keys in one frame, and the daemons answer side by side, so a
// round costs its busiest daemon's frames.
func daemonBranches(round []sentFrame) []int {
	byDest := make(map[transport.NodeID]int)
	for _, f := range round {
		byDest[f.to]++
	}
	out := make([]int, 0, len(byDest))
	for _, n := range byDest {
		out = append(out, n)
	}
	return out
}

// critDHT is the substrate as the index sees it, with its batch calls
// marked as rounds on m. Everything else passes through unchanged.
type critDHT struct {
	inner dht.DHT
	m     *critMeter
}

var (
	_ dht.Batcher     = (*critDHT)(nil)
	_ dht.BatchWriter = (*critDHT)(nil)
	_ dht.SpanGetter  = (*critDHT)(nil)
	_ dht.Doer        = (*critDHT)(nil)
	_ dht.Enumerator  = (*critDHT)(nil)
)

func (c *critDHT) Put(key dht.Key, value any) error          { return c.inner.Put(key, value) }
func (c *critDHT) Get(key dht.Key) (any, bool, error)        { return c.inner.Get(key) }
func (c *critDHT) Remove(key dht.Key) error                  { return c.inner.Remove(key) }
func (c *critDHT) Apply(key dht.Key, fn dht.ApplyFunc) error { return c.inner.Apply(key, fn) }
func (c *critDHT) Owner(key dht.Key) (string, error)         { return c.inner.Owner(key) }
func (c *critDHT) Do(key dht.Key, op dht.Op) (any, error)    { return dht.Do(c.inner, key, op) }

func (c *critDHT) GetSpan(key dht.Key, parent trace.SpanID) (any, bool, error) {
	return dht.GetWithSpan(c.inner, key, parent)
}

func (c *critDHT) GetBatch(keys []dht.Key, maxInFlight int) (out []dht.BatchResult) {
	c.m.batch(func() { out = dht.GetBatch(c.inner, keys, maxInFlight) })
	return out
}

func (c *critDHT) PutBatch(ops []dht.PutOp, maxInFlight int) (out []error) {
	c.m.batch(func() { out = dht.PutBatch(c.inner, ops, maxInFlight) })
	return out
}

func (c *critDHT) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := c.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	return e.Range(fn)
}

// TestCritMsgsRule pins the critical-path rule the ledger's crit_msgs
// column is computed by: sequential frames add, and a round costs its
// costliest branch, never the sum of its branches.
func TestCritMsgsRule(t *testing.T) {
	step := sentFrame{typ: "chord.lookupStepReq", to: "a"}
	get := sentFrame{typ: "overlay.retrieveReq", to: "b"}
	push := sentFrame{typ: "overlay.replicateReq", to: "c"}
	send := func(m *critMeter, fs ...sentFrame) {
		for _, f := range fs {
			m.frame(f)
		}
	}

	keys := &critMeter{branches: keyBranches}
	// Two calls one after another: a get routed in two steps (three
	// frames), then a put routed in one, with its replica push (three).
	send(keys, step, step, get)
	send(keys, step, get, push)
	if got := keys.take(); got != 12 {
		t.Errorf("sequential calls: crit_msgs %d, want 2×(3+3) = 12", got)
	}
	// A round of three keys costing 3, 2 and 5 frames waits for the 5-frame
	// key alone: 10 messages, where the sum would be 20.
	keys.batch(func() { send(keys, step, step, get, step, get, step, step, step, get, push) })
	if got := keys.take(); got != 10 {
		t.Errorf("round of keys: crit_msgs %d, want 2×max(3,2,5) = 10", got)
	}
	if got := keyBranches([]sentFrame{step, get, step, step, get, step, get, push}); !slices.Equal(got, []int{2, 3, 3}) {
		t.Errorf("keyBranches = %v, want [2 3 3]", got)
	}

	daemons := &critMeter{branches: daemonBranches}
	a, b := sentFrame{typ: "overlay.retrieveBatchReq", to: "a"}, sentFrame{typ: "overlay.retrieveReq", to: "b"}
	send(daemons, a)
	daemons.batch(func() { send(daemons, a, b, b, a, b) })
	send(daemons, b)
	if got := daemons.take(); got != 2+6+2 {
		t.Errorf("dialed round between two calls: crit_msgs %d, want 2 + 2×3 + 2 = 10", got)
	}
}
