package mapreduce

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Peers is the one way a process reaches a peer: every call the runtime
// makes — master to worker, worker to master, worker to worker — is a
// Peers.Call. Its four rules:
//
//   - one connection per address, kept for the life of the Peers, its
//     calls told apart by sequence number;
//   - concurrent first callers share one dial, bounded by peerDialTimeout
//     and owned by the Peers, so no caller's cancellation fails the others;
//   - only a transport error evicts (and closes) a connection: an error the
//     peer's handler returned (ServerError) arrived over a healthy
//     connection, and closing it would fail every call sharing it;
//   - a call is bounded by its context: when the context ends Call returns
//     ctx.Err() at once and sends the peer a cancel frame, which ends the
//     call's context in the handler. Nothing writes the reply once Call has
//     returned, so the caller may reuse or recycle it whatever the outcome.
//
// Every connection speaks the wire codec (codec.go).
type Peers struct {
	ctx    context.Context // bounds the dials; Close cancels it
	cancel context.CancelFunc
	dials  sync.WaitGroup
	loops  sync.WaitGroup // the connections' read loops

	mu      sync.Mutex
	clients map[string]*peerConn
	closed  bool
}

// peerConn is one address's connection, or the dial that will produce it.
// Callers write their requests in turn; readReplies alone reads.
type peerConn struct {
	ready chan struct{} // closed when the dial has finished
	err   error         // the dial's failure
	conn  net.Conn

	wmu sync.Mutex // held while a frame is written
	wc  wireConn

	mu      sync.Mutex
	seq     uint64 // the next call's
	pending map[uint64]pendingCall
	broken  error // why the connection failed; no call starts on it after
}

// pendingCall is a call waiting for its response.
type pendingCall struct {
	reply WireMessage
	done  chan error // buffered; whoever takes the call from pending sends once
}

// ServerError is an error a peer's handler returned. It arrived over a
// healthy connection, which stays.
type ServerError string

func (e ServerError) Error() string { return string(e) }

const peerDialTimeout = 5 * time.Second

// errPeersClosed fails every call made after Close.
var errPeersClosed = errors.New("mapreduce: peers closed")

// NewPeers returns an empty pool.
func NewPeers() *Peers {
	p := &Peers{clients: make(map[string]*peerConn)}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	return p
}

// Call invokes method on the peer at addr and waits for the reply or for
// ctx to end, whichever comes first.
func (p *Peers) Call(ctx context.Context, addr, method string, args, reply WireMessage) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pc, err := p.conn(ctx, addr)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	seq, err := pc.start(method, args, reply, done)
	if err == nil {
		select {
		case err = <-done:
		case <-ctx.Done():
			if pc.forget(seq) {
				go pc.write(seq, "", nil) // the cancel frame; a stalled connection must not delay the return
			} else {
				<-done // the response is being decoded into reply: wait it out
			}
			return ctx.Err()
		}
	}
	if err != nil && !errors.As(err, new(ServerError)) {
		p.evict(addr, pc)
	}
	return err
}

// conn returns addr's connection, dialing it on first use.
func (p *Peers) conn(ctx context.Context, addr string) (*peerConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPeersClosed
	}
	pc := p.clients[addr]
	if pc == nil {
		pc = &peerConn{ready: make(chan struct{})}
		p.clients[addr] = pc
		p.dials.Add(1) // under the lock Close takes, so no Add races its Wait
		go p.dial(addr, pc)
	}
	p.mu.Unlock()
	select {
	case <-pc.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return pc, pc.err
}

// dial connects pc, opens the wire codec on the connection and starts its
// read loop. A failed dial is evicted before its waiters wake, so the next
// call starts a fresh one.
func (p *Peers) dial(addr string, pc *peerConn) {
	defer p.dials.Done()
	d := net.Dialer{Timeout: peerDialTimeout}
	conn, err := d.DialContext(p.ctx, "tcp", addr)
	if err == nil {
		if _, err = conn.Write([]byte{wirePreamble}); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		pc.err = err
		p.evict(addr, pc)
	} else {
		pc.conn = conn
		pc.wc = wireConn{w: conn, r: bufio.NewReader(conn)}
		pc.pending = make(map[uint64]pendingCall)
		p.loops.Add(1) // before Close's Wait: Close waits for the dials first
		go func() {
			defer p.loops.Done()
			pc.readReplies()
		}()
	}
	close(pc.ready)
}

// start makes a call pending and writes its request.
func (pc *peerConn) start(method string, args, reply WireMessage, done chan error) (uint64, error) {
	pc.mu.Lock()
	if err := pc.broken; err != nil {
		pc.mu.Unlock()
		return 0, err
	}
	seq := pc.seq // a connection's first call is 0
	pc.seq++
	pc.pending[seq] = pendingCall{reply, done}
	pc.mu.Unlock()
	return seq, pc.write(seq, method, args)
}

// forget abandons a pending call. False means the call was already taken:
// its result is on the way.
func (pc *peerConn) forget(seq uint64) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	_, ok := pc.pending[seq]
	delete(pc.pending, seq)
	return ok
}

// write sends one frame; a failed write fails the connection.
func (pc *peerConn) write(seq uint64, method string, body WireMessage) error {
	pc.wmu.Lock()
	err := pc.wc.writeFrame(seq, method, body)
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(err)
	}
	return err
}

// fail closes the connection and fails every pending call with err. A
// call that starts later fails with the first such error, and its caller
// evicts the connection.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.broken == nil {
		pc.broken = err
	}
	pending := pc.pending
	pc.pending = nil
	pc.mu.Unlock()
	pc.conn.Close()
	for _, c := range pending {
		c.done <- err
	}
}

// readReplies is the connection's read loop: it hands each response to its
// pending call, decoding the body into the call's reply, and drops the
// response to an abandoned call. It ends when the connection fails, and a
// body that does not decode fails it.
func (pc *peerConn) readReplies() {
	for {
		seq, errText, err := pc.wc.readFrame()
		if err != nil {
			pc.fail(err)
			return
		}
		pc.mu.Lock()
		c, ok := pc.pending[seq]
		delete(pc.pending, seq)
		pc.mu.Unlock()
		switch {
		case !ok:
		case errText != "":
			c.done <- ServerError(errText)
		default:
			if err := pc.wc.decodeBody(c.reply); err != nil {
				c.done <- err
				pc.fail(err)
				return
			}
			c.done <- nil
		}
	}
}

// evict forgets pc — unless a newer connection already replaced it — and
// closes it, failing whatever is still in flight on it.
func (p *Peers) evict(addr string, pc *peerConn) {
	p.mu.Lock()
	if p.clients[addr] == pc {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	if pc.conn != nil {
		pc.conn.Close()
	}
}

// Close closes every connection and waits for their read loops: calls in
// flight fail with their connection, later ones with errPeersClosed.
func (p *Peers) Close() {
	p.mu.Lock()
	p.closed = true
	clients := p.clients
	p.clients = nil
	p.mu.Unlock()
	p.cancel()
	p.dials.Wait()
	for addr, pc := range clients {
		p.evict(addr, pc)
	}
	p.loops.Wait()
}

// A Handler serves one method of a ServeRPC table; Handle makes one.
type Handler interface {
	args() WireMessage
	serve(ctx context.Context, args WireMessage) (WireMessage, error)
}

// message is a *T with a wire layout.
type message[T any] interface {
	*T
	WireMessage
}

// handler is a method whose args are a *A and reply a *R.
type handler[A, R any, AP message[A], RP message[R]] func(context.Context, AP, RP) error

func (h handler[A, R, AP, RP]) args() WireMessage { return AP(new(A)) }

func (h handler[A, R, AP, RP]) serve(ctx context.Context, args WireMessage) (WireMessage, error) {
	reply := RP(new(R))
	return reply, h(ctx, args.(AP), reply)
}

// Handle makes fn a method: each request is decoded into a fresh args, and
// fn runs under the call's context — which ends on the caller's cancel
// frame, with the connection, or with the server — filling a fresh reply.
// An error fn returns reaches the caller as a ServerError.
func Handle[A, R any, AP message[A], RP message[R]](fn func(context.Context, AP, RP) error) Handler {
	return handler[A, R, AP, RP](fn)
}

// ServeRPC is the accepting end of those connections: it serves handlers,
// keyed "Service.Method", on every connection ln accepts, until ln closes,
// and ends each connection, and the calls running on it, when ctx ends. A
// runtime that stops closes what it accepted, as a process exit would —
// its peers hold pooled connections, so a closed listener alone would
// leave it reachable.
//
// A connection that opens with the wire preamble speaks the wire codec.
// Any other is handed to other, or closed when other is nil: the worker's
// gob arm for the benchmark harness (internal/worker/gob.go) is the one
// other there is.
func ServeRPC(ctx context.Context, ln net.Listener, handlers map[string]Handler, other func(io.ReadWriteCloser)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			r := bufio.NewReader(conn)
			first, err := r.Peek(1)
			switch {
			case err == nil && first[0] == wirePreamble:
				r.Discard(1) // the peeked byte, already buffered
				serveConn(ctx, conn, r, handlers)
			case err == nil && other != nil:
				other(struct {
					io.Reader
					io.WriteCloser
				}{r, conn})
			default:
				conn.Close()
			}
		}()
	}
}

// serverConn is the accepting end of one connection: its read loop decodes
// the requests, each call runs on its own goroutine under its own context,
// and their responses take turns on the write half.
type serverConn struct {
	conn io.Closer
	wmu  sync.Mutex // held while a frame is written
	wc   wireConn

	mu    sync.Mutex
	calls map[uint64]context.CancelFunc // the calls running, by sequence number
}

// serveConn serves one connection until it ends, then ends its calls'
// contexts and waits for their handlers to return.
func serveConn(ctx context.Context, conn net.Conn, r *bufio.Reader, handlers map[string]Handler) {
	sc := &serverConn{conn: conn, wc: wireConn{w: conn, r: r}, calls: make(map[uint64]context.CancelFunc)}
	ctx, cancel := context.WithCancel(ctx)
	var running sync.WaitGroup
	defer func() {
		cancel()
		running.Wait()
		conn.Close()
	}()
	for {
		seq, method, err := sc.wc.readFrame()
		if err != nil {
			return
		}
		if method == "" { // a cancel frame
			sc.mu.Lock()
			end := sc.calls[seq]
			sc.mu.Unlock()
			if end != nil {
				end()
			}
			continue
		}
		h := handlers[method]
		if h == nil {
			sc.respond(seq, nil, errors.New("mapreduce: no method "+method))
			continue
		}
		args := h.args()
		if err := sc.wc.decodeBody(args); err != nil {
			sc.respond(seq, nil, errors.New("mapreduce: "+method+" args: "+err.Error()))
			continue
		}
		callCtx, end := context.WithCancel(ctx)
		sc.mu.Lock()
		sc.calls[seq] = end
		sc.mu.Unlock()
		running.Add(1)
		go func() {
			defer running.Done()
			reply, err := h.serve(callCtx, args)
			sc.mu.Lock()
			delete(sc.calls, seq)
			sc.mu.Unlock()
			sc.finish(callCtx, seq, reply, err)
			end()
		}()
	}
}

// releaser is a pooled reply (ExecRangeReply): its handler wrote into
// recycled capacity, which goes back once the handler is done with it.
type releaser interface{ Release() }

// finish answers a call whose handler returned, unless the call's context
// ended first — its caller is gone, or so is the connection — and then
// releases a pooled reply: the frame holds a copy of it, and nothing else
// touches it again.
func (sc *serverConn) finish(ctx context.Context, seq uint64, reply WireMessage, err error) {
	if ctx.Err() == nil {
		sc.respond(seq, reply, err)
	}
	if rel, ok := reply.(releaser); ok {
		rel.Release()
	}
}

// respond writes a call's response: reply, or err's text and no body. A
// failed write closes the connection, which ends its read loop.
func (sc *serverConn) respond(seq uint64, reply WireMessage, err error) {
	text := ""
	if err != nil {
		text, reply = err.Error(), nil
		if text == "" {
			text = "mapreduce: handler failed"
		}
	}
	sc.wmu.Lock()
	werr := sc.wc.writeFrame(seq, text, reply)
	sc.wmu.Unlock()
	if werr != nil {
		sc.conn.Close()
	}
}
