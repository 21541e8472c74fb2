package mapreduce

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// Peers is the one way a process reaches a peer: every RPC the runtime
// makes — master to worker, worker to master, worker to worker — is a
// Peers.Call. Its four rules:
//
//   - one client per address, kept for the life of the Peers;
//   - concurrent first callers share one dial, bounded by peerDialTimeout
//     and owned by the Peers, so no caller's cancellation fails the others;
//   - only a transport error evicts (and closes) a client: an error the
//     peer's handler returned (rpc.ServerError) arrived over a healthy
//     connection, and closing it would fail every call sharing it;
//   - a call is bounded by its context: when the context ends Call returns
//     ctx.Err() at once and the reply stays owned by the abandoned call —
//     the transport may still decode into it, so never reuse or recycle it.
type Peers struct {
	ctx    context.Context // bounds the dials; Close cancels it
	cancel context.CancelFunc
	dials  sync.WaitGroup

	mu      sync.Mutex
	clients map[string]*peerClient
	closed  bool
}

// peerClient is one address's client, or the dial that will produce it.
type peerClient struct {
	ready  chan struct{} // closed when the dial has finished
	client *rpc.Client
	err    error
}

const peerDialTimeout = 5 * time.Second

// errPeersClosed fails every call made after Close.
var errPeersClosed = errors.New("mapreduce: peers closed")

// NewPeers returns an empty pool.
func NewPeers() *Peers {
	p := &Peers{clients: make(map[string]*peerClient)}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	return p
}

// Call invokes method on the peer at addr and waits for the reply or for
// ctx to end, whichever comes first.
func (p *Peers) Call(ctx context.Context, addr, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errPeersClosed
	}
	pc := p.clients[addr]
	if pc == nil {
		pc = &peerClient{ready: make(chan struct{})}
		p.clients[addr] = pc
		p.dials.Add(1) // under the lock Close takes, so no Add races its Wait
		go p.dial(addr, pc)
	}
	p.mu.Unlock()
	select {
	case <-pc.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	if pc.err != nil {
		return pc.err
	}
	call := pc.client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if call.Error != nil && !errors.As(call.Error, new(rpc.ServerError)) {
		p.evict(addr, pc)
	}
	return call.Error
}

// dial connects pc. A failed dial is evicted before its waiters wake, so
// the next call starts a fresh one.
func (p *Peers) dial(addr string, pc *peerClient) {
	defer p.dials.Done()
	d := net.Dialer{Timeout: peerDialTimeout}
	conn, err := d.DialContext(p.ctx, "tcp", addr)
	if err != nil {
		pc.err = err
		p.evict(addr, pc)
	} else {
		pc.client = rpc.NewClient(conn)
	}
	close(pc.ready)
}

// evict forgets pc — unless a newer client already replaced it — and
// closes its connection, failing whatever is still in flight on it.
func (p *Peers) evict(addr string, pc *peerClient) {
	p.mu.Lock()
	if p.clients[addr] == pc {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	if pc.client != nil {
		pc.client.Close()
	}
}

// Close closes every connection: calls in flight fail with their
// connection, later ones with errPeersClosed.
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
}

// ServeRPC is the accepting end of those connections: it serves srv on
// every connection ln accepts, until ln closes, and ends each connection
// when ctx does. A runtime that stops closes what it accepted, as a process
// exit would — its peers hold pooled connections, so a closed listener
// alone would leave it reachable.
func ServeRPC(ctx context.Context, ln net.Listener, srv *rpc.Server) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			srv.ServeConn(conn)
		}()
	}
}
