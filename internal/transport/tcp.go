package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions tunes a TCP transport. The zero value selects the defaults.
type TCPOptions struct {
	// CallTimeout bounds one RPC round trip (write + remote handler +
	// response). Expired calls fail with a transient error, so retry
	// layers treat a hung peer like a lost message. Default 10s.
	CallTimeout time.Duration
	// DialTimeout bounds establishing a connection to a peer. Default 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write on either side. Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout is the server-side read deadline: a connection that stays
	// silent this long is closed (the client transparently redials on its
	// next call). Default 2m.
	IdleTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	return o
}

// TCP implements Interface over real sockets. A NodeID is the peer's
// dialable listen address ("host:port"): Register opens a listener at that
// address, and Call dials the destination directly, so the refs the
// overlays gossip are themselves routable and no address resolution layer
// is needed.
//
// Outbound connections are pooled: the first call to a peer dials once, and
// every later call multiplexes over the same connection, matched to its
// response by the envelope sequence number. Whoever has a frame to send — a
// caller its request, a handler's worker its reply — writes it itself under
// the connection's write mutex; the only goroutine a connection owns is its
// read loop, which also decodes. A failed connection drains its in-flight
// calls with a transient error and is redialed on the next call.
//
// The fault hooks (SetDown, Crash, Restart, IsDown) act on *local* nodes
// only — a process cannot partition a peer it does not host. A down local
// node answers every inbound call with a transient unreachable error and
// refuses to originate calls, mirroring simnet's crash semantics closely
// enough that the overlay lifecycle paths (CrashNode, RestartNode) work
// unchanged.
type TCP struct {
	opts TCPOptions

	mu     sync.Mutex
	locals map[NodeID]*tcpLocal
	peers  map[NodeID]*tcpPeer
	down   map[NodeID]bool
	conns  map[net.Conn]struct{} // accepted inbound connections
	closed bool
	wg     sync.WaitGroup // accept loops, read loops and workers

	// calls hands a decoded inbound call to a parked worker. Unbuffered on
	// purpose: a send succeeds only if a worker is waiting right now.
	calls  chan rpcCall
	done   chan struct{} // closed by Close; releases parked workers
	parked atomic.Int32
}

var _ Interface = (*TCP)(nil)

// NewTCP creates a TCP transport hosting no nodes yet.
func NewTCP(opts TCPOptions) *TCP {
	return &TCP{
		opts:   opts.withDefaults(),
		locals: make(map[NodeID]*tcpLocal),
		peers:  make(map[NodeID]*tcpPeer),
		down:   make(map[NodeID]bool),
		conns:  make(map[net.Conn]struct{}),
		calls:  make(chan rpcCall),
		done:   make(chan struct{}),
	}
}

// tcpLocal is one hosted node: a listener plus its request handler.
type tcpLocal struct {
	id NodeID
	ln net.Listener

	mu sync.Mutex
	h  Handler
}

func (l *tcpLocal) handler() Handler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

// Reserve binds a loopback listener on an ephemeral port and returns its
// address as a NodeID, without attaching a handler yet. Tests and daemons
// use it to learn concrete addresses ("127.0.0.1:0" resolved) before the
// overlay nodes that will own them exist; a later Register with the same id
// attaches the handler to the already-listening socket, so no port is ever
// advertised before it is bound.
func (t *TCP) Reserve() (NodeID, error) {
	return t.listen("127.0.0.1:0", nil)
}

// Listen binds a listener on an explicit address ("host:port", ":7400") and
// returns the resolved NodeID. Like Reserve, the handler arrives with a
// later Register.
func (t *TCP) Listen(addr string) (NodeID, error) {
	return t.listen(addr, nil)
}

func (t *TCP) listen(addr string, h Handler) (NodeID, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", ErrClosed
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	id := NodeID(ln.Addr().String())
	l := &tcpLocal{id: id, ln: ln, h: h}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
		return "", ErrClosed
	}
	if _, dup := t.locals[id]; dup {
		t.mu.Unlock()
		ln.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
		return "", fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	t.locals[id] = l
	t.wg.Add(1)
	t.mu.Unlock()

	go t.acceptLoop(l)
	return id, nil
}

// Register attaches a handler under id. If id names a reserved listener the
// handler is attached to it; otherwise a new listener is bound at the
// address id spells.
func (t *TCP) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", id)
	}
	t.mu.Lock()
	l, ok := t.locals[id]
	t.mu.Unlock()
	if ok {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.h != nil {
			return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
		}
		l.h = h
		return nil
	}
	got, err := t.listen(string(id), h)
	if err != nil {
		return err
	}
	if got != id {
		// The listener resolved to a different address than the id spells
		// (e.g. an ephemeral port was requested under a fixed name). Peers
		// would dial the id and miss the listener, so refuse.
		t.Deregister(got)
		return fmt.Errorf("transport: register %q resolved to %q; use Reserve for ephemeral ports", id, got)
	}
	return nil
}

// Deregister closes the node's listener and forgets it. In-flight handler
// executions finish. Connections peers already hold to the node outlive the
// listener, so the handler is detached too: a call arriving on one is
// answered unreachable instead of being served by a node that has left.
func (t *TCP) Deregister(id NodeID) {
	t.mu.Lock()
	l, ok := t.locals[id]
	delete(t.locals, id)
	delete(t.down, id)
	t.mu.Unlock()
	if ok {
		l.mu.Lock()
		l.h = nil
		l.mu.Unlock()
		l.ln.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	}
}

// SetDown marks a local node as partitioned (true) or healed (false): while
// down it answers every call with a transient unreachable error and cannot
// originate calls, but keeps all state — the partition/crash split the
// churn machinery relies on.
func (t *TCP) SetDown(id NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.down[id] = true
	} else {
		delete(t.down, id)
	}
}

// Crash marks a local node down and destroys its volatile state via the
// Crasher hook, exactly as simnet.Network.Crash does.
func (t *TCP) Crash(id NodeID) error {
	t.mu.Lock()
	l, ok := t.locals[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: crash of unregistered node %q", id)
	}
	t.down[id] = true
	t.mu.Unlock()
	if c, ok := l.handler().(Crasher); ok {
		c.OnCrash()
	}
	return nil
}

// Restart clears a local node's down mark and runs its Restarter hook so
// recovery completes before peers can observe the node.
func (t *TCP) Restart(id NodeID) error {
	t.mu.Lock()
	l, ok := t.locals[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: restart of unregistered node %q", id)
	}
	delete(t.down, id)
	t.mu.Unlock()
	if r, ok := l.handler().(Restarter); ok {
		r.OnRestart()
	}
	return nil
}

// IsDown reports whether a local node is marked down.
func (t *TCP) IsDown(id NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[id]
}

// OneWayLatency implements Interface: a real network has no latency model.
func (t *TCP) OneWayLatency(from, to NodeID) time.Duration { return 0 }

// Close shuts the transport down gracefully: listeners stop accepting,
// pooled connections close (draining in-flight calls with a transient
// error), parked workers are released, and Close blocks until every accept
// loop, read loop and worker has exited — a handler still running is waited
// for.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	locals := make([]*tcpLocal, 0, len(t.locals))
	for _, l := range t.locals {
		locals = append(locals, l)
	}
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.locals = make(map[NodeID]*tcpLocal)
	t.peers = make(map[NodeID]*tcpPeer)
	t.conns = make(map[net.Conn]struct{})
	t.mu.Unlock()

	for _, l := range locals {
		l.ln.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	}
	for _, p := range peers {
		p.fail(ErrClosed)
	}
	for _, c := range conns {
		c.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	}
	close(t.done)
	t.wg.Wait()
	return nil
}

// acceptLoop serves one listener until it closes.
func (t *TCP) acceptLoop(l *tcpLocal) {
	defer t.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(l, conn)
	}
}

// serverConn is one accepted connection. Its read loop decodes the calls;
// whichever worker ran a call's handler writes the reply itself, under wmu.
type serverConn struct {
	local *tcpLocal
	conn  net.Conn
	wmu   sync.Mutex // held for one whole frame, so replies never interleave
}

// write sends one reply frame under the write deadline. A failed write
// closes the connection; its read loop notices on its next read.
func (sc *serverConn) write(frame []byte, timeout time.Duration) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.conn.SetWriteDeadline(time.Now().Add(timeout)) //lint:allow determinism socket deadlines are wall-clock by nature
	if _, err := sc.conn.Write(frame); err != nil {
		sc.conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	}
}

// rpcCall is one inbound call, decoded, on its way to a worker.
type rpcCall struct {
	sc   *serverConn
	seq  uint64
	from NodeID
	req  any
	err  error // the call did not decode; answered with an error frame
}

// maxParkedWorkers bounds how many idle workers a transport keeps between
// calls; a burst beyond it is served by goroutines that exit when done.
const maxParkedWorkers = 64

// serveConn is one inbound connection's read loop: frames are read under
// the idle deadline and decoded here, on a goroutine that lives as long as
// the connection (its stack grows into the decoder once, not per call), and
// each call is handed to a worker, so a slow handler or one that makes a
// nested RPC never blocks the connection.
func (t *TCP) serveConn(l *tcpLocal, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()

	sc := &serverConn{local: l, conn: conn}
	br := bufio.NewReader(conn)
	var (
		scratch []byte
		from    NodeID // the previous call's caller, see decodeCallPayload
	)
	for {
		conn.SetReadDeadline(time.Now().Add(t.opts.IdleTimeout)) //lint:allow determinism socket deadlines are wall-clock by nature
		kind, seq, payload, grown, err := readFrame(br, scratch)
		scratch = grown
		if err != nil {
			return
		}
		if kind != frameCall {
			continue // a server connection only ever receives calls
		}
		call := rpcCall{sc: sc, seq: seq}
		call.from, call.req, call.err = decodeCallPayload(payload, from)
		from = call.from
		// A parked worker takes the call if there is one; otherwise a new
		// worker starts with it. The read loop never waits for a handler.
		select {
		case t.calls <- call:
		default:
			t.wg.Add(1) // safe against Close's Wait: this loop is itself counted
			go t.worker(call)
		}
	}
}

// worker serves calls until the transport closes: the one it was started
// with, then whatever the read loops hand it while it is parked. Workers are
// reused so that a call does not pay for a new goroutine and for growing its
// stack through the handler again; they belong to the transport, not to a
// connection, and Close waits for every one of them.
func (t *TCP) worker(call rpcCall) {
	defer t.wg.Done()
	for {
		t.serve(call)
		call = rpcCall{} // a parked worker must not pin its last request

		if t.parked.Add(1) > maxParkedWorkers {
			t.parked.Add(-1)
			return
		}
		select {
		case call = <-t.calls:
			t.parked.Add(-1)
		case <-t.done:
			return
		}
	}
}

// serve runs one call's handler, encodes the reply straight into a pooled
// frame buffer and writes it.
func (t *TCP) serve(call rpcCall) {
	resp, err := t.handle(call)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	if err == nil {
		var b []byte
		if b, err = appendAny(openFrame(*buf, frameResp, call.seq), resp); err == nil {
			var frame []byte
			*buf, frame = closeFrame(b)
			call.sc.write(frame, t.opts.WriteTimeout)
			return
		}
		err = fmt.Errorf("transport: %q: encode response: %v", call.sc.local.id, err)
	}
	*buf = appendFrame((*buf)[:0], frameErr, call.seq, encodeErrPayload(err))
	call.sc.write(*buf, t.opts.WriteTimeout)
}

func (t *TCP) handle(call rpcCall) (any, error) {
	l := call.sc.local
	if call.err != nil {
		return nil, call.err
	}
	if t.IsDown(l.id) {
		return nil, fmt.Errorf("%w: %q", ErrUnreachable, l.id)
	}
	h := l.handler()
	if h == nil {
		return nil, fmt.Errorf("%w: %q has no handler yet", ErrUnreachable, l.id)
	}
	return h.HandleRPC(call.from, call.req)
}

// callResult carries one response back to its waiting caller.
type callResult struct {
	resp any
	err  error
}

// pendingCall is what a caller parks on: the channel its reply arrives on
// and the timer that bounds the wait. Both are reused from call to call.
type pendingCall struct {
	ch    chan callResult
	timer *time.Timer
}

var pendingPool = sync.Pool{New: func() any {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &pendingCall{ch: make(chan callResult, 1), timer: timer}
}}

// tcpPeer is one pooled outbound connection, multiplexing concurrent calls.
type tcpPeer struct {
	addr NodeID
	conn net.Conn
	seq  atomic.Uint64
	wmu  sync.Mutex // held for one whole frame, so calls never interleave

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	dead    error // non-nil once the connection failed
}

// write sends one call frame under the write deadline.
func (p *tcpPeer) write(frame []byte, timeout time.Duration) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(timeout)) //lint:allow determinism socket deadlines are wall-clock by nature
	_, err := p.conn.Write(frame)
	return err
}

// fail tears the connection down, draining every in-flight call with err.
func (p *tcpPeer) fail(err error) {
	p.mu.Lock()
	if p.dead != nil {
		p.mu.Unlock()
		return
	}
	p.dead = err
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	p.conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	for _, c := range pending {
		c.ch <- callResult{err: err}
	}
}

// Call implements Interface. The handler runs in the destination process;
// any delivery failure — dial refused, connection lost, timeout — comes
// back as a transient error so retry layers can act on it.
//
// The calling goroutine encodes the request straight into a pooled frame
// buffer and writes the frame itself: no pump goroutine stands between a
// caller and its socket, and the buffer is free again when Write returns.
func (t *TCP) Call(from, to NodeID, req any) (any, error) {
	p, err := t.peer(from, to)
	if err != nil {
		return nil, err
	}
	seq := p.seq.Add(1)
	buf := getFrameBuf()
	b, err := appendCallPayload(openFrame(*buf, frameCall, seq), from, req)
	if err != nil {
		putFrameBuf(buf)
		return nil, fmt.Errorf("transport: call %q→%q: %w", from, to, err)
	}
	var frame []byte
	*buf, frame = closeFrame(b)

	c := pendingPool.Get().(*pendingCall)
	p.mu.Lock()
	if p.dead != nil {
		err := p.dead
		p.mu.Unlock()
		putFrameBuf(buf)
		pendingPool.Put(c)
		return nil, fmt.Errorf("%w: %q: %v", ErrUnreachable, to, err)
	}
	p.pending[seq] = c
	p.mu.Unlock()

	c.timer.Reset(t.opts.CallTimeout)
	if err := p.write(frame, t.opts.WriteTimeout); err != nil {
		// Fails this call with every other one in flight: its error arrives
		// on c.ch below.
		p.fail(fmt.Errorf("%w: %q: %v", ErrUnreachable, p.addr, err))
	}
	putFrameBuf(buf)

	select {
	case r := <-c.ch:
		// Exactly one result is ever sent to a registered call (whoever
		// takes it out of pending sends it), so c is quiet again and can
		// serve the next caller once its timer is.
		if !c.timer.Stop() {
			select {
			case <-c.timer.C:
			default:
			}
		}
		pendingPool.Put(c)
		if r.err != nil {
			if p.isDead() {
				t.dropPeer(p)
			}
			return nil, r.err
		}
		return r.resp, nil
	case <-c.timer.C:
		// c is abandoned, not reused: the read loop may have taken it out of
		// pending already and be about to send the late reply.
		p.forget(seq)
		return nil, fmt.Errorf("%w: %q: call timed out", ErrUnreachable, to)
	}
}

func (p *tcpPeer) forget(seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pending, seq)
}

func (p *tcpPeer) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead != nil
}

// dropPeer removes a failed connection from the pool so the next call to
// that address dials afresh.
func (t *TCP) dropPeer(p *tcpPeer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.peers[p.addr]; ok && cur == p {
		delete(t.peers, p.addr)
	}
}

// peer returns the pooled connection from may call addr over, dialing it if
// absent. Dial errors are transient: the peer process may simply not be up
// yet.
func (t *TCP) peer(from, addr NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if t.down[from] {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrCallerDown, from)
	}
	if p, ok := t.peers[addr]; ok {
		t.mu.Unlock()
		return p, nil
	}
	t.mu.Unlock()

	conn, err := net.DialTimeout("tcp", string(addr), t.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %q: %v", ErrUnreachable, addr, err)
	}
	p := &tcpPeer{addr: addr, conn: conn, pending: make(map[uint64]*pendingCall)}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
		return nil, ErrClosed
	}
	if cur, ok := t.peers[addr]; ok {
		// Lost the dial race; use the winner's connection.
		t.mu.Unlock()
		conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
		return cur, nil
	}
	t.peers[addr] = p
	t.wg.Add(1)
	t.mu.Unlock()

	go t.peerReadLoop(p)
	return p, nil
}

// peerReadLoop decodes responses and hands each to its waiting caller by
// sequence number. Responses whose caller already timed out are dropped.
func (t *TCP) peerReadLoop(p *tcpPeer) {
	defer t.wg.Done()
	br := bufio.NewReader(p.conn)
	var scratch []byte
	for {
		kind, seq, payload, grown, err := readFrame(br, scratch)
		scratch = grown
		if err != nil {
			p.fail(fmt.Errorf("%w: %q: %v", ErrUnreachable, p.addr, err))
			t.dropPeer(p)
			return
		}
		var result callResult
		switch kind {
		case frameResp:
			v, err := Unmarshal(payload)
			if err != nil {
				result = callResult{err: fmt.Errorf("transport: %q: decode response: %w", p.addr, err)}
			} else {
				result = callResult{resp: v}
			}
		case frameErr:
			remoteErr, err := decodeErrPayload(payload)
			if err != nil {
				result = callResult{err: fmt.Errorf("transport: %q: decode error frame: %w", p.addr, err)}
			} else {
				result = callResult{err: remoteErr}
			}
		default:
			continue // a client connection only ever receives replies
		}
		p.mu.Lock()
		c := p.pending[seq]
		delete(p.pending, seq)
		p.mu.Unlock()
		if c != nil {
			// Non-blocking by construction: the channel is buffered(1) and
			// the entry left the map above, so only one sender can ever
			// reach it — but delivering through a default arm makes the
			// read loop's liveness a local fact instead of a cross-function
			// argument.
			select {
			case c.ch <- result:
			default:
			}
		}
	}
}
