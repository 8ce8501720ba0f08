package main

import (
	"reflect"
	"strings"
	"sync"
	"time"

	"mlight/internal/dht"
	"mlight/internal/trace"
	"mlight/internal/transport"
)

// level is the nesting depth of a seam. Higher levels are deeper in the
// stack; the attribution sweep bills every instant of an operation to the
// deepest level active at that instant, so the order below is the priority
// order of the sweep.
type level uint8

const (
	// levelOp spans one Index call made by the load generator.
	levelOp level = iota
	// levelDHT spans calls through the timedDHT directly below core.New.
	levelDHT
	// levelSubstrate spans calls through the timedDHT between wire.ByteDHT
	// and the overlay (only on stacks that have a ByteDHT).
	levelSubstrate
	// levelRPC spans transport.Interface.Call on the client's transport.
	levelRPC
	// levelHandler spans a transport.Handler registered through the
	// client's transport: the overlay's node-side code, which an inline
	// transport runs inside Call. Over TCP the nodes live behind the
	// daemons' own transports and the level stays empty.
	levelHandler
	// levelFnSub spans the ApplyFunc handed through the substrate seam:
	// wire's decode/re-encode shim with core's closure inside it.
	levelFnSub
	// levelFn spans the ApplyFunc handed through the dht seam: core's
	// split/append closure executing inside the store or overlay call.
	levelFn
	numLevels
)

var levelNames = [numLevels]string{"op", "dht", "substrate", "rpc", "handler", "fn", "fn"}

// span is one recorded interval. Times are nanoseconds since the recorder's
// epoch; name indexes recorder.names.
type span struct {
	start, end int64
	width      int32 // logical calls covered; see timedDHT
	bytes      int32 // request+response payload, rpc spans over TCP only
	name       uint16
	lvl        level
}

// maxKeptSpans bounds the Chrome trace file: the first spans of the run are
// kept verbatim, the rest only feed the per-layer aggregates.
const maxKeptSpans = 200_000

// recorder collects the spans of the operation in flight. With one client,
// every span recorded between beginOp and endOp belongs to that operation,
// so interval containment is causality.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	cur   []span
	sized []payload // rpc spans of cur whose payload is still to be measured
	kept  []span
	total int64

	names  []string
	nameID map[string]uint16
	agg    *aggregate
}

func newRecorder(layers layerOf) *recorder {
	agg := &aggregate{facingLvl: levelDHT}
	if layers[levelSubstrate] != "" {
		agg.facingLvl = levelSubstrate
	}
	return &recorder{epoch: time.Now(), nameID: make(map[string]uint16), agg: agg}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// intern returns the stable id of a span name.
func (r *recorder) intern(name string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.nameID[name]; ok {
		return id
	}
	id := uint16(len(r.names))
	r.names = append(r.names, name)
	r.nameID[name] = id
	return id
}

// payload remembers the request and response of one rpc span, so that
// their encoded size is measured after the operation, not inside it.
type payload struct {
	span      int
	req, resp any
}

// add records one finished span. Spans arriving outside an operation
// (set-up, teardown, daemon maintenance) are dropped.
func (r *recorder) add(s span) {
	r.mu.Lock()
	if r.on {
		r.cur = append(r.cur, s)
	}
	r.mu.Unlock()
}

// addSized is add for an rpc span whose bytes endOp fills in.
func (r *recorder) addSized(s span, req, resp any) {
	r.mu.Lock()
	if r.on {
		r.sized = append(r.sized, payload{len(r.cur), req, resp})
		r.cur = append(r.cur, s)
	}
	r.mu.Unlock()
}

// beginOp opens the operation window.
func (r *recorder) beginOp() {
	r.mu.Lock()
	r.cur = r.cur[:0]
	r.sized = r.sized[:0]
	r.on = true
	r.mu.Unlock()
}

// endOp closes the window, attributes the operation's time to the layers
// and keeps the first spans for the trace file. It runs outside the timed
// window of the operation.
func (r *recorder) endOp(kind opKind, start, end int64) {
	r.mu.Lock()
	r.on = false
	r.cur = append(r.cur, span{start: start, end: end, lvl: levelOp, name: uint16(kind), width: 1})
	spans := r.cur
	r.mu.Unlock()

	for _, p := range r.sized {
		spans[p.span].bytes = int32(encodedLen(p.req) + encodedLen(p.resp))
	}
	r.total += int64(len(spans))
	if room := maxKeptSpans - len(r.kept); room > 0 {
		if room > len(spans) {
			room = len(spans)
		}
		r.kept = append(r.kept, spans[:room]...)
	}
	r.agg.attribute(kind, spans, r.names)
}

// timedDHT is the dht and substrate seam: a pass-through decorator that
// records one span per call and wraps every ApplyFunc handed down through
// it. It forwards every optional capability (Batcher, BatchWriter,
// SpanGetter, Enumerator) the way the decorators of package dht do, so the
// stack above takes the same code path with or without it.
type timedDHT struct {
	inner dht.DHT
	rec   *recorder
	lvl   level
	fnLvl level
	ids   [numDHTMethods]uint16
}

type dhtMethod int

const (
	mPut dhtMethod = iota
	mGet
	mRemove
	mApply
	mOwner
	mGetBatch
	mPutBatch
	mApplyBatch
	numDHTMethods
)

var dhtMethodNames = [numDHTMethods]string{"Put", "Get", "Remove", "Apply", "Owner", "GetBatch", "PutBatch", "ApplyBatch"}

var (
	_ dht.DHT         = (*timedDHT)(nil)
	_ dht.Batcher     = (*timedDHT)(nil)
	_ dht.BatchWriter = (*timedDHT)(nil)
	_ dht.SpanGetter  = (*timedDHT)(nil)
	_ dht.Enumerator  = (*timedDHT)(nil)
)

func newTimedDHT(inner dht.DHT, rec *recorder, lvl, fnLvl level) *timedDHT {
	t := &timedDHT{inner: inner, rec: rec, lvl: lvl, fnLvl: fnLvl}
	for m, name := range dhtMethodNames {
		t.ids[m] = rec.intern(levelNames[lvl] + "." + name)
	}
	return t
}

func (t *timedDHT) done(m dhtMethod, width int, start int64) {
	t.rec.add(span{start: start, end: t.rec.now(), lvl: t.lvl, name: t.ids[m], width: int32(width)})
}

// wrap times fn as its own seam: the closure is the caller's code running
// inside the callee, and must not be billed to the callee.
func (t *timedDHT) wrap(fn dht.ApplyFunc) dht.ApplyFunc {
	return func(cur any, exists bool) (any, bool) {
		start := t.rec.now()
		next, keep := fn(cur, exists)
		t.rec.add(span{start: start, end: t.rec.now(), lvl: t.fnLvl, name: t.ids[mApply]})
		return next, keep
	}
}

func (t *timedDHT) Put(key dht.Key, value any) error {
	defer t.done(mPut, 1, t.rec.now())
	return t.inner.Put(key, value)
}

func (t *timedDHT) Get(key dht.Key) (any, bool, error) {
	defer t.done(mGet, 1, t.rec.now())
	return t.inner.Get(key)
}

func (t *timedDHT) GetSpan(key dht.Key, parent trace.SpanID) (any, bool, error) {
	defer t.done(mGet, 1, t.rec.now())
	return dht.GetWithSpan(t.inner, key, parent)
}

func (t *timedDHT) Remove(key dht.Key) error {
	defer t.done(mRemove, 1, t.rec.now())
	return t.inner.Remove(key)
}

func (t *timedDHT) Apply(key dht.Key, fn dht.ApplyFunc) error {
	defer t.done(mApply, 1, t.rec.now())
	return t.inner.Apply(key, t.wrap(fn))
}

func (t *timedDHT) Owner(key dht.Key) (string, error) {
	defer t.done(mOwner, 1, t.rec.now())
	return t.inner.Owner(key)
}

// The batch methods keep the dispatch rule of dht.GetBatch/PutBatch/
// ApplyBatch: a native batch goes down whole and is one span of width
// len(keys); otherwise the package's worker pool runs over singleCalls, so
// each pooled call is its own span (the batch span then has width 0 and
// only marks the round).

func (t *timedDHT) GetBatch(keys []dht.Key, maxInFlight int) []dht.BatchResult {
	if _, native := t.inner.(dht.Batcher); native {
		defer t.done(mGetBatch, len(keys), t.rec.now())
		return dht.GetBatch(t.inner, keys, maxInFlight)
	}
	defer t.done(mGetBatch, 0, t.rec.now())
	return dht.GetBatch(singleCalls{t}, keys, maxInFlight)
}

func (t *timedDHT) PutBatch(ops []dht.PutOp, maxInFlight int) []error {
	if _, native := t.inner.(dht.BatchWriter); native {
		defer t.done(mPutBatch, len(ops), t.rec.now())
		return dht.PutBatch(t.inner, ops, maxInFlight)
	}
	defer t.done(mPutBatch, 0, t.rec.now())
	return dht.PutBatch(singleCalls{t}, ops, maxInFlight)
}

func (t *timedDHT) ApplyBatch(ops []dht.ApplyOp, maxInFlight int) []error {
	if _, native := t.inner.(dht.BatchWriter); native {
		wrapped := make([]dht.ApplyOp, len(ops))
		for i, op := range ops {
			wrapped[i] = dht.ApplyOp{Key: op.Key, Fn: t.wrap(op.Fn)}
		}
		defer t.done(mApplyBatch, len(ops), t.rec.now())
		return dht.ApplyBatch(t.inner, wrapped, maxInFlight)
	}
	defer t.done(mApplyBatch, 0, t.rec.now())
	return dht.ApplyBatch(singleCalls{t}, ops, maxInFlight)
}

func (t *timedDHT) Range(fn func(key dht.Key, value any) bool) error {
	e, ok := t.inner.(dht.Enumerator)
	if !ok {
		return dht.ErrNotEnumerable
	}
	return e.Range(fn)
}

// singleCalls narrows a timedDHT to the five plain methods, so the dht
// package's batch helpers take their worker-pool path over timed calls.
type singleCalls struct{ t *timedDHT }

func (s singleCalls) Put(key dht.Key, value any) error         { return s.t.Put(key, value) }
func (s singleCalls) Get(key dht.Key) (any, bool, error)       { return s.t.Get(key) }
func (s singleCalls) Remove(key dht.Key) error                 { return s.t.Remove(key) }
func (s singleCalls) Apply(key dht.Key, f dht.ApplyFunc) error { return s.t.Apply(key, f) }
func (s singleCalls) Owner(key dht.Key) (string, error)        { return s.t.Owner(key) }

// timedTransport is the rpc seam: it records one span per Call, named after
// the request's type. Over a transport that really serialises (TCP) it also
// records the encoded size of request and response, measured once the
// operation has ended.
type timedTransport struct {
	transport.Interface
	rec    *recorder
	sizes  bool
	mu     sync.Mutex
	byType map[reflect.Type]uint16
}

// timedInlineTransport adds the InlineDelivery marker. The overlays pick
// the closure-carrying apply path only when the marker is present, so the
// wrapper must have it exactly when the wrapped transport does.
type timedInlineTransport struct{ *timedTransport }

func (timedInlineTransport) InlineDelivery() bool { return true }

func newTimedTransport(inner transport.Interface, rec *recorder) transport.Interface {
	inline := transport.SupportsInline(inner)
	t := &timedTransport{Interface: inner, rec: rec, sizes: !inline, byType: make(map[reflect.Type]uint16)}
	if inline {
		return timedInlineTransport{t}
	}
	return t
}

// Register wraps h so that the handler's run time is a seam of its own:
// inline delivery executes it inside Call, where it would otherwise be
// billed to the transport.
func (t *timedTransport) Register(id transport.NodeID, h transport.Handler) error {
	return t.Interface.Register(id, timedHandler{h, t.rec, t.rec.intern("handler")})
}

// timedHandler times one node's handler. It forwards the crash and restart
// hooks the transports probe for, so fault injection behaves as unwrapped.
type timedHandler struct {
	transport.Handler
	rec  *recorder
	name uint16
}

func (h timedHandler) HandleRPC(from transport.NodeID, req any) (any, error) {
	start := h.rec.now()
	resp, err := h.Handler.HandleRPC(from, req)
	h.rec.add(span{start: start, end: h.rec.now(), lvl: levelHandler, name: h.name})
	return resp, err
}

func (h timedHandler) OnCrash() {
	if c, ok := h.Handler.(transport.Crasher); ok {
		c.OnCrash()
	}
}

func (h timedHandler) OnRestart() {
	if r, ok := h.Handler.(transport.Restarter); ok {
		r.OnRestart()
	}
}

func (t *timedTransport) nameOf(req any) uint16 {
	typ := reflect.TypeOf(req)
	t.mu.Lock()
	id, ok := t.byType[typ]
	t.mu.Unlock()
	if ok {
		return id
	}
	name := "rpc.nil"
	if typ != nil {
		name = "rpc." + strings.TrimPrefix(typ.String(), "*")
	}
	id = t.rec.intern(name)
	t.mu.Lock()
	t.byType[typ] = id
	t.mu.Unlock()
	return id
}

func (t *timedTransport) Call(from, to transport.NodeID, req any) (any, error) {
	name := t.nameOf(req)
	start := t.rec.now()
	resp, err := t.Interface.Call(from, to, req)
	s := span{start: start, end: t.rec.now(), lvl: levelRPC, name: name, width: 1}
	if t.sizes {
		t.rec.addSized(s, req, resp)
	} else {
		t.rec.add(s)
	}
	return resp, err
}

// encodedLen is the payload size the reflection codec produces for v; a
// value the codec cannot encode (nil responses) counts as zero.
func encodedLen(v any) int {
	if v == nil {
		return 0
	}
	b, err := transport.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b)
}
