package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPOptions tunes a TCP transport. The zero value selects the defaults.
type TCPOptions struct {
	// CallTimeout bounds one RPC round trip (queue + write + remote handler
	// + response). Expired calls fail with a transient error, so retry
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
// every later call multiplexes over the same connection through a write
// pump, matched to its response by the envelope sequence number. A failed
// connection drains its in-flight calls with a transient error and is
// redialed on the next call.
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
	wg     sync.WaitGroup
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
// error), and Close blocks until every connection goroutine has exited.
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

// serveConn handles one inbound connection: frames are read under the idle
// deadline, each call runs its handler on its own goroutine (nested RPCs
// must not block the connection), and responses funnel through a write pump
// so concurrent completions never interleave bytes.
func (t *TCP) serveConn(l *tcpLocal, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()

	writeCh := make(chan []byte, 16)
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for frame := range writeCh {
			conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)) //lint:allow determinism socket deadlines are wall-clock by nature
			if _, err := conn.Write(frame); err != nil {
				// Reader notices the dead conn on its next read.
				conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
				return
			}
		}
	}()
	var handlers sync.WaitGroup
	defer func() {
		// Let in-flight handlers finish enqueueing, then drain the pump.
		handlers.Wait()
		close(writeCh)
		<-writeDone
	}()

	br := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(t.opts.IdleTimeout)) //lint:allow determinism socket deadlines are wall-clock by nature
		kind, seq, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if kind != frameCall {
			continue // a server connection only ever receives calls
		}
		handlers.Add(1)
		go func(seq uint64, payload []byte) {
			defer handlers.Done()
			frame := t.dispatch(l, seq, payload)
			select {
			case writeCh <- frame:
			case <-writeDone:
			}
		}(seq, payload)
	}
}

// dispatch decodes one call, runs the handler, and encodes the reply frame.
func (t *TCP) dispatch(l *tcpLocal, seq uint64, payload []byte) []byte {
	from, req, err := decodeCallPayload(payload)
	if err != nil {
		return appendFrame(nil, frameErr, seq, encodeErrPayload(err))
	}
	if t.IsDown(l.id) {
		return appendFrame(nil, frameErr, seq,
			encodeErrPayload(fmt.Errorf("%w: %q", ErrUnreachable, l.id)))
	}
	h := l.handler()
	if h == nil {
		return appendFrame(nil, frameErr, seq,
			encodeErrPayload(fmt.Errorf("%w: %q has no handler yet", ErrUnreachable, l.id)))
	}
	resp, err := h.HandleRPC(from, req)
	if err != nil {
		return appendFrame(nil, frameErr, seq, encodeErrPayload(err))
	}
	body, err := appendAny(nil, resp)
	if err != nil {
		return appendFrame(nil, frameErr, seq,
			encodeErrPayload(fmt.Errorf("transport: %q: encode response: %v", l.id, err)))
	}
	return appendFrame(nil, frameResp, seq, body)
}

// callResult carries one response back to its waiting caller.
type callResult struct {
	resp any
	err  error
}

// tcpPeer is one pooled outbound connection, multiplexing concurrent calls.
type tcpPeer struct {
	addr NodeID

	mu      sync.Mutex
	conn    net.Conn
	writeCh chan []byte
	done    chan struct{}
	pending map[uint64]chan callResult
	seq     uint64
	dead    error // non-nil once the connection failed
}

// fail tears the connection down, draining every in-flight call with err.
func (p *tcpPeer) fail(err error) {
	p.mu.Lock()
	if p.dead != nil {
		p.mu.Unlock()
		return
	}
	p.dead = err
	conn := p.conn
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close() //lint:allow droppederr best-effort teardown of an already-failed or superseded conn
	}
	close(p.done)
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// Call implements Interface. The handler runs in the destination process;
// any delivery failure — dial refused, connection lost, timeout — comes
// back as a transient error so retry layers can act on it.
func (t *TCP) Call(from, to NodeID, req any) (any, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if t.down[from] {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrCallerDown, from)
	}
	t.mu.Unlock()

	payload, err := encodeCallPayload(from, req)
	if err != nil {
		return nil, fmt.Errorf("transport: call %q→%q: %w", from, to, err)
	}
	p, err := t.peer(to)
	if err != nil {
		return nil, err
	}

	ch := make(chan callResult, 1)
	p.mu.Lock()
	if p.dead != nil {
		err := p.dead
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q: %v", ErrUnreachable, to, err)
	}
	p.seq++
	seq := p.seq
	p.pending[seq] = ch
	p.mu.Unlock()

	frame := appendFrame(nil, frameCall, seq, payload)
	timer := time.NewTimer(t.opts.CallTimeout)
	defer timer.Stop()

	select {
	case p.writeCh <- frame:
	case <-p.done:
		t.dropPeer(p)
		return nil, fmt.Errorf("%w: %q: connection lost", ErrUnreachable, to)
	case <-timer.C:
		p.forget(seq)
		return nil, fmt.Errorf("%w: %q: call timed out", ErrUnreachable, to)
	}

	select {
	case r := <-ch:
		if r.err != nil {
			if p.isDead() {
				t.dropPeer(p)
			}
			return nil, r.err
		}
		return r.resp, nil
	case <-timer.C:
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

// peer returns the pooled connection to addr, dialing it if absent. Dial
// errors are transient: the peer process may simply not be up yet.
func (t *TCP) peer(addr NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
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

	p := &tcpPeer{
		addr:    addr,
		conn:    conn,
		writeCh: make(chan []byte, 16),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan callResult),
	}

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
	t.wg.Add(2)
	t.mu.Unlock()

	go t.peerWriteLoop(p)
	go t.peerReadLoop(p)
	return p, nil
}

// peerWriteLoop is the connection's write pump.
func (t *TCP) peerWriteLoop(p *tcpPeer) {
	defer t.wg.Done()
	for {
		select {
		case frame := <-p.writeCh:
			p.conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)) //lint:allow determinism socket deadlines are wall-clock by nature
			if _, err := p.conn.Write(frame); err != nil {
				p.fail(fmt.Errorf("%w: %q: %v", ErrUnreachable, p.addr, err))
				return
			}
		case <-p.done:
			return
		}
	}
}

// peerReadLoop dispatches responses to their waiting callers by sequence
// number. Responses whose caller already timed out are dropped.
func (t *TCP) peerReadLoop(p *tcpPeer) {
	defer t.wg.Done()
	br := bufio.NewReader(p.conn)
	for {
		kind, seq, payload, err := readFrame(br)
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
		ch := p.pending[seq]
		delete(p.pending, seq)
		p.mu.Unlock()
		if ch != nil {
			// Non-blocking by construction: the channel is buffered(1) and
			// the entry left the map above, so only one sender can ever
			// reach it — but delivering through a default arm makes the
			// read loop's liveness a local fact instead of a cross-function
			// argument (and keeps the goroutineleak pass's proof trivial).
			select {
			case ch <- result:
			default:
			}
		}
	}
}
