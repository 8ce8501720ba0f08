package dhttest

import (
	"sync"

	"mlight/internal/dht"
	"mlight/internal/trace"
)

// Stepper runs several clients of one substrate one DHT call at a time, in
// the order a scheduler picks. Each client gets its own handle over the
// substrate (Client); a call on a handle parks until the scheduler releases
// it (Release), runs against the substrate while every other client is
// parked, and returns. So a schedule — the sequence of clients whose call
// runs next — fixes the whole interleaving, and replaying the list replays
// the run.
//
// A handle forwards every optional capability of the substrate (Doer,
// Batcher, BatchWriter, SpanGetter, Enumerator), so the client above runs its
// real path. A batch parks once per key: over an overlay a batch's keys reach
// their owners independently, so another client's call may fall between any
// two of them. Range (enumeration) and Owner do not park: they are
// measurement aids, not data-path calls.
//
// Until Start, calls pass straight through: clients are built, and a tree
// seeded, before the schedule begins.
type Stepper struct {
	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	steps   int
	clients []*stepClient
}

// Call is a parked call: the client that made it, what it is ("get", "put",
// "remove", "apply", "do"), and the key.
type Call struct {
	Client int
	Kind   string
	Key    dht.Key
	// Op is the op of a "do" call.
	Op dht.Op
}

// Commutes reports whether two parked calls may run in either order with the
// same outcome: they touch different keys, or both only read.
func (c Call) Commutes(d Call) bool {
	return c.Key != d.Key || c.Kind == "get" && d.Kind == "get"
}

type clientState int

const (
	running clientState = iota
	parked
	finished
)

type stepClient struct {
	s     *Stepper
	id    int
	state clientState
	call  Call
	wake  chan struct{}
}

// NewStepper returns a scheduler with no clients; calls pass through until
// Start.
func NewStepper() *Stepper {
	s := &Stepper{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Client returns a new client's handle over inner, the substrate every client
// shares; its id is its index in creation order. The client counts as running
// until its first parked call.
func (s *Stepper) Client(inner dht.DHT) dht.DHT {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &stepClient{s: s, id: len(s.clients), wake: make(chan struct{})}
	s.clients = append(s.clients, c)
	return &StepHandle{inner: inner, c: c}
}

// Start makes every later call park.
func (s *Stepper) Start() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
}

// Finish marks client id done: it makes no more calls.
func (s *Stepper) Finish(id int) {
	s.mu.Lock()
	s.clients[id].state = finished
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Wait blocks until no client is running — each is parked or finished — and
// returns the parked calls, by client id. An empty result means every client
// has finished.
func (s *Stepper) Wait() []Call {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var calls []Call
		busy := false
		for _, c := range s.clients {
			switch c.state {
			case running:
				busy = true
			case parked:
				calls = append(calls, c.call)
			}
		}
		if !busy {
			return calls
		}
		s.cond.Wait()
	}
}

// Release runs client id's parked call. The next Wait returns once the client
// has parked again or finished.
func (s *Stepper) Release(id int) {
	s.mu.Lock()
	c := s.clients[id]
	if c.state != parked {
		s.mu.Unlock()
		panic("dhttest: Release of a client that is not parked")
	}
	c.state = running
	s.steps++
	s.mu.Unlock()
	c.wake <- struct{}{}
}

// Steps returns how many calls have been released: the logical clock a
// history's real-time order is read from.
func (s *Stepper) Steps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// park blocks the client until its call is released, if the schedule has
// started.
func (c *stepClient) park(kind string, key dht.Key, op dht.Op) {
	s := c.s
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	c.state, c.call = parked, Call{Client: c.id, Kind: kind, Key: key, Op: op}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-c.wake
}

// StepHandle is one client's view of the substrate: a decorator that parks
// each call until the Stepper releases it.
type StepHandle struct {
	inner dht.DHT
	c     *stepClient
}

var (
	_ dht.DHT         = (*StepHandle)(nil)
	_ dht.Doer        = (*StepHandle)(nil)
	_ dht.Batcher     = (*StepHandle)(nil)
	_ dht.BatchWriter = (*StepHandle)(nil)
	_ dht.SpanGetter  = (*StepHandle)(nil)
	_ dht.Enumerator  = (*StepHandle)(nil)
)

// Put implements dht.DHT.
func (h *StepHandle) Put(key dht.Key, value any) error {
	h.c.park("put", key, nil)
	return h.inner.Put(key, value)
}

// Get implements dht.DHT.
func (h *StepHandle) Get(key dht.Key) (any, bool, error) {
	h.c.park("get", key, nil)
	return h.inner.Get(key)
}

// GetSpan implements dht.SpanGetter.
func (h *StepHandle) GetSpan(key dht.Key, parent trace.SpanID) (any, bool, error) {
	h.c.park("get", key, nil)
	return dht.GetWithSpan(h.inner, key, parent)
}

// Remove implements dht.DHT.
func (h *StepHandle) Remove(key dht.Key) error {
	h.c.park("remove", key, nil)
	return h.inner.Remove(key)
}

// Apply implements dht.DHT.
func (h *StepHandle) Apply(key dht.Key, fn dht.ApplyFunc) error {
	h.c.park("apply", key, nil)
	return h.inner.Apply(key, fn)
}

// Do implements dht.Doer.
func (h *StepHandle) Do(key dht.Key, op dht.Op) (any, error) {
	h.c.park("do", key, op)
	return dht.Do(h.inner, key, op)
}

// GetBatch implements dht.Batcher: one parked Get per key, in order.
func (h *StepHandle) GetBatch(keys []dht.Key, _ int) []dht.BatchResult {
	out := make([]dht.BatchResult, len(keys))
	for i, k := range keys {
		h.c.park("get", k, nil)
		v, ok, err := h.inner.Get(k)
		out[i] = dht.BatchResult{Value: v, Found: ok, Err: err}
	}
	return out
}

// PutBatch implements dht.BatchWriter: one parked Put per key, in order.
func (h *StepHandle) PutBatch(ops []dht.PutOp, _ int) []error {
	errs := make([]error, len(ops))
	for i, op := range ops {
		h.c.park("put", op.Key, nil)
		errs[i] = h.inner.Put(op.Key, op.Value)
	}
	return errs
}

// Owner implements dht.DHT; it does not park.
func (h *StepHandle) Owner(key dht.Key) (string, error) { return h.inner.Owner(key) }

// Range implements dht.Enumerator when the substrate does; it does not park.
func (h *StepHandle) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := h.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	return e.Range(fn)
}
