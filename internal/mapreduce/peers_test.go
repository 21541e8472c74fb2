package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/wirefmt"
)

// countingListener counts the connections it accepts and can kill them,
// which is how these tests observe what Peers does to the network.
type countingListener struct {
	net.Listener
	accepted atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: ln}
	t.Cleanup(func() {
		ln.Close()
		l.killConns()
	})
	return l
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

func (l *countingListener) addr() string { return l.Addr().String() }

// killConns closes every accepted connection under the peer's feet.
func (l *countingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// PeerMsg is the scripted service's message: one string, laid out as the
// wire codec lays out every string.
type PeerMsg string

func (m *PeerMsg) wire(c *wirefmt.Codec) { c.String((*string)(m)) }

// peerMsg is a PeerMsg as call args cross: by pointer.
func peerMsg(s string) *PeerMsg { return (*PeerMsg)(&s) }

// scriptedPeer is a service whose method Do echoes its argument, except
// "hold", which parks in the handler until released, "reject", which the
// handler refuses, and "wait", which parks until the call's context ends.
type scriptedPeer struct {
	held    chan struct{} // one token per call parked in "hold" or "wait"
	release chan struct{}
	opened  sync.Once
	ended   chan error // a "wait" call's context error, once it ends
}

// releaseAll lets every parked and future "hold" through.
func (s *scriptedPeer) releaseAll() { s.opened.Do(func() { close(s.release) }) }

func (s *scriptedPeer) Do(ctx context.Context, arg, reply *PeerMsg) error {
	switch *arg {
	case "hold":
		s.held <- struct{}{}
		<-s.release
	case "reject":
		return errors.New("scripted: rejected")
	case "wait":
		s.held <- struct{}{}
		<-ctx.Done()
		s.ended <- ctx.Err()
		return ctx.Err()
	}
	*reply = "echo:" + *arg
	return nil
}

// serveScripted serves svc as "Peer" on ln.
func serveScripted(ln net.Listener, svc *scriptedPeer) {
	go ServeRPC(context.Background(), ln, map[string]Handler{"Peer.Do": Handle(svc.Do)}, nil)
}

func newScriptedPeer() *scriptedPeer {
	return &scriptedPeer{held: make(chan struct{}, 64), release: make(chan struct{}), ended: make(chan error, 64)}
}

// startScriptedPeer serves a scriptedPeer on a counting listener and
// returns a Peers to call it through.
func startScriptedPeer(t *testing.T) (*Peers, *scriptedPeer, *countingListener) {
	t.Helper()
	svc := newScriptedPeer()
	ln := listenCounting(t)
	serveScripted(ln, svc)
	t.Cleanup(svc.releaseAll)
	p := NewPeers()
	t.Cleanup(p.Close)
	return p, svc, ln
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPeersSharedFirstDial: concurrent first callers of an address share
// one dial — the stampede a check-then-dial cache allows is exactly one
// connection here.
func TestPeersSharedFirstDial(t *testing.T) {
	p, _, ln := startScriptedPeer(t)
	start := make(chan struct{})
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			<-start
			var reply PeerMsg
			arg := PeerMsg(fmt.Sprint(i))
			err := p.Call(context.Background(), ln.addr(), "Peer.Do", &arg, &reply)
			if err == nil && reply != "echo:"+arg {
				err = fmt.Errorf("reply %q to %q", reply, arg)
			}
			errs <- err
		}(i)
	}
	close(start)
	for i := 0; i < 64; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("64 concurrent first callers opened %d connections, want 1", n)
	}
}

// TestPeersEvictsOnlyOnTransportError: an error returned by the peer's
// handler travels over a healthy connection; dropping the shared client
// for it would fail every call in flight on that connection. Only a transport failure evicts the client, and the next
// call then redials.
func TestPeersEvictsOnlyOnTransportError(t *testing.T) {
	p, svc, ln := startScriptedPeer(t)
	ctx := context.Background()
	held := make(chan error, 1)
	go func() {
		var reply PeerMsg
		err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("hold"), &reply)
		if err == nil && reply != "echo:hold" {
			err = fmt.Errorf("reply %q", reply)
		}
		held <- err
	}()
	<-svc.held // the first call is inside the handler, on the shared client

	var reply PeerMsg
	err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("reject"), &reply)
	if !errors.As(err, new(ServerError)) {
		t.Fatalf("rejected call: err = %v, want the handler's ServerError", err)
	}
	svc.release <- struct{}{}
	if err := <-held; err != nil {
		t.Errorf("the in-flight call on the same connection failed: %v", err)
	}
	if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("again"), &reply); err != nil || reply != "echo:again" {
		t.Fatalf("call after a handler error = %q, %v", reply, err)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("a handler error cost a redial: %d connections, want 1", n)
	}

	// A transport failure evicts, so the next call redials.
	ln.killConns()
	waitUntil(t, "the killed connection to fail a call", func() bool {
		return p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("probe"), &reply) != nil
	})
	if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("fresh"), &reply); err != nil || reply != "echo:fresh" {
		t.Fatalf("call after a transport error = %q, %v; want a redial", reply, err)
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("%d connections after one transport failure, want 2", n)
	}

	// A refused dial is not cached either.
	dead := listenCounting(t)
	dead.Close()
	for i := 0; i < 2; i++ {
		if err := p.Call(ctx, dead.addr(), "Peer.Do", peerMsg("x"), &reply); err == nil {
			t.Fatal("call to a closed listener succeeded")
		}
	}
}

// TestPeersCancelReturnsAtOnce: a call whose context ends returns
// ctx.Err() without waiting for the peer, and costs the calls sharing its
// connection nothing.
func TestPeersCancelReturnsAtOnce(t *testing.T) {
	p, svc, ln := startScriptedPeer(t)
	ctx, cancel := context.WithCancel(context.Background())
	hung := make(chan error, 1)
	go func() { hung <- p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("hold"), new(PeerMsg)) }()
	<-svc.held

	other := make(chan error, 1)
	go func() {
		var reply PeerMsg
		err := p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("hold"), &reply)
		if err == nil && reply != "echo:hold" {
			err = fmt.Errorf("reply %q", reply)
		}
		other <- err
	}()
	<-svc.held

	cancel()
	cancelled := time.Now()
	select {
	case err := <-hung:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, want context.Canceled", err)
		}
		if waited := time.Since(cancelled); waited > 500*time.Millisecond {
			t.Fatalf("cancelled call returned after %v", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
	if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("late"), new(PeerMsg)); !errors.Is(err, context.Canceled) {
		t.Fatalf("call under an ended context = %v, want context.Canceled", err)
	}

	svc.releaseAll()
	if err := <-other; err != nil {
		t.Fatalf("the concurrent call on the same connection failed: %v", err)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestPeersClose: Close fails the calls in flight and every later one.
func TestPeersClose(t *testing.T) {
	p, svc, ln := startScriptedPeer(t)
	hung := make(chan error, 1)
	go func() { hung <- p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("hold"), new(PeerMsg)) }()
	<-svc.held
	p.Close()
	select {
	case err := <-hung:
		if err == nil || errors.Is(err, errPeersClosed) {
			t.Fatalf("in-flight call at Close = %v, want its connection's failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a call in flight")
	}
	if err := p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("x"), new(PeerMsg)); !errors.Is(err, errPeersClosed) {
		t.Fatalf("call after Close = %v, want errPeersClosed", err)
	}
	p.Close() // idempotent
}

// TestCallCancelEndsHandler: a call whose context ends mid-handler sends
// the peer a cancel frame, and the handler's context ends with it; the
// connection stays for the next call.
func TestCallCancelEndsHandler(t *testing.T) {
	p, svc, ln := startScriptedPeer(t)
	ctx, cancel := context.WithCancel(context.Background())
	called := make(chan error, 1)
	go func() { called <- p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("wait"), new(PeerMsg)) }()
	<-svc.held
	cancel()
	select {
	case err := <-svc.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the handler's context ended with %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the handler's context outlived its cancelled call by 1s")
	}
	if err := <-called; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
	var reply PeerMsg
	if err := p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("next"), &reply); err != nil || reply != "echo:next" {
		t.Fatalf("call after the cancel = %q, %v", reply, err)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestConnCloseEndsHandler: when the caller's connection closes, the
// contexts of the calls running on it end.
func TestConnCloseEndsHandler(t *testing.T) {
	p, svc, ln := startScriptedPeer(t)
	called := make(chan error, 1)
	go func() { called <- p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("wait"), new(PeerMsg)) }()
	<-svc.held
	p.Close()
	select {
	case err := <-svc.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the handler's context ended with %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the handler's context outlived its connection by 1s")
	}
	if err := <-called; err == nil {
		t.Fatal("a call on the closed connection succeeded")
	}
}

// TestCallNeverWritesReplyAfterReturn: calls cancelled at every point of
// their round trip — before the request, while the handler runs, while the
// response is decoded — never have their reply written once Call has
// returned. The caller writes the reply the moment Call returns; under
// -race a late decode into it is a reported race.
func TestCallNeverWritesReplyAfterReturn(t *testing.T) {
	p, _, ln := startScriptedPeer(t)
	var answered, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%10 != 0 { // every tenth call runs to its answer
					time.AfterFunc(time.Duration(i%7)*40*time.Microsecond, cancel)
				}
				reply := new(PeerMsg)
				err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg(fmt.Sprint(i)), reply)
				*reply = "mine"
				switch {
				case err == nil:
					answered.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					t.Errorf("call %d: %v", i, err)
				}
				cancel()
				if *reply != "mine" {
					t.Errorf("call %d: the reply changed after Call returned", i)
				}
			}
		}()
	}
	wg.Wait()
	if answered.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d calls answered, %d cancelled: want both", answered.Load(), cancelled.Load())
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("%d connections, want 1: a cancel costs no connection", n)
	}
}

// TestGetTaskEndsWithItsCall: a GetTask long-poll whose call ended takes
// nothing. A dispatch submitted after it stays pending for a live poller
// instead of waiting in the inflight set of a poll nobody reads.
func TestGetTaskEndsWithItsCall(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	m, err := c.StartMaster(MasterOptions{HeartbeatEvery: time.Minute, Lease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	var reg RegisterReply
	if err := m.Register(context.Background(), &RegisterArgs{}, &reg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	polled := make(chan TaskAssignment, 1)
	go func() {
		var task TaskAssignment
		m.GetTask(ctx, &GetTaskArgs{WorkerID: reg.WorkerID}, &task)
		polled <- task
	}()
	time.Sleep(10 * time.Millisecond) // into the poll's wait
	cancel()
	select {
	case task := <-polled:
		if task.Phase != TaskNone {
			t.Fatalf("the cancelled poll took a %q task", task.Phase)
		}
	case <-time.After(time.Second):
		t.Fatal("the poll outlived its call by 1s")
	}
	d := &dispatch{phase: TaskMap, resultCh: make(chan dispatchResult, 1)}
	if err := m.submit(d); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	pending, held := slices.Contains(m.pending, d), len(m.workers[reg.WorkerID].inflight)
	m.mu.Unlock()
	if !pending || held != 0 {
		t.Fatalf("after the abandoned poll: dispatch pending %v, %d held by the worker; want pending, none held", pending, held)
	}
}

// scriptedShards is the worker half of a scripted pool member: it accepts
// replica pushes and job drops and counts them.
type scriptedShards struct {
	pushes, drops atomic.Int64
}

func (s *scriptedShards) PushBlock(_ context.Context, args *PushBlockArgs, reply *PushBlockReply) error {
	s.pushes.Add(1)
	return nil
}

func (s *scriptedShards) DropJob(_ context.Context, args *DropJobArgs, reply *DropJobReply) error {
	s.drops.Add(1)
	return nil
}

// scriptedRun opens a pool run over a fresh one-block input file, the way
// runJob does, without executing anything — enough to drive the master's
// own traffic to its workers: the replica push at the start, the DropJob
// broadcast at close.
func scriptedRun(t *testing.T, c *Cluster, m *Master, input string) *remoteRun {
	t.Helper()
	if err := c.FS().WriteFile(input, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	job := identityJob("scripted", identityMap)
	job.Input = []string{input}
	rj := &runningJob{job: job, reg: obs.NewRegistry(), nshards: 1}
	splits, err := c.MakeSplits(job.Input)
	if err != nil {
		t.Fatal(err)
	}
	return startRemote(jobContext(), m, rj, splits)
}

// TestMasterConnectionCensus: the master's connections are bounded by its
// workers, not by its work — 20 jobs, each pushing a replica to the worker
// and broadcasting a drop to it, arrive over one connection.
func TestMasterConnectionCensus(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	m, err := c.StartMaster(MasterOptions{Replication: 2, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	shards := &scriptedShards{}
	ln := listenCounting(t)
	go ServeRPC(context.Background(), ln, map[string]Handler{
		ShardService + ".PushBlock": Handle(shards.PushBlock),
		ShardService + ".DropJob":   Handle(shards.DropJob),
	}, nil)
	if err := m.Register(context.Background(), &RegisterArgs{Addr: ln.addr()}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		scriptedRun(t, c, m, fmt.Sprintf("in%d", i)).close()
	}
	waitUntil(t, "20 drops", func() bool { return shards.drops.Load() == 20 })
	if n := shards.pushes.Load(); n != 20 {
		t.Fatalf("%d replica pushes over 20 one-block jobs, want 20", n)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("20 jobs opened %d connections to the worker, want 1", n)
	}
}

// TestMasterStopWithSilentWorker: a registered worker that accepts
// connections and never answers must not pin Stop — the DropJob broadcast
// runs under the master's lifetime and ends with it.
func TestMasterStopWithSilentWorker(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	m, err := c.StartMaster(MasterOptions{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln := listenCounting(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // swallow every request
		}
	}()
	if err := m.Register(context.Background(), &RegisterArgs{Addr: ln.addr()}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	scriptedRun(t, c, m, "in").close()
	waitUntil(t, "the drop to reach the worker", func() bool { return ln.accepted.Load() == 1 })

	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Master.Stop is waiting for a worker that never answers")
	}
}

// TestChunkWindow pins the one place a FetchChunk window is computed.
func TestChunkWindow(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, offset int64
		maxBytes     int
		n            int64
		eof, wantErr bool
	}{
		{name: "negative offset", size: 10, offset: -1, maxBytes: 4, wantErr: true},
		{name: "offset past the end", size: 10, offset: 11, maxBytes: 4, wantErr: true},
		{name: "offset at the end", size: 10, offset: 10, maxBytes: 4, n: 0, eof: true},
		{name: "window inside", size: 10, offset: 2, maxBytes: 4, n: 4},
		{name: "window ends at the end", size: 10, offset: 6, maxBytes: 4, n: 4, eof: true},
		{name: "MaxBytes past the end", size: 10, offset: 8, maxBytes: 4, n: 2, eof: true},
		{name: "MaxBytes zero is the rest", size: 10, offset: 3, maxBytes: 0, n: 7, eof: true},
		{name: "MaxBytes negative is the rest", size: 10, offset: 3, maxBytes: -5, n: 7, eof: true},
		{name: "empty stream", size: 0, offset: 0, maxBytes: 4, n: 0, eof: true},
		{name: "empty stream, offset past it", size: 0, offset: 1, maxBytes: 4, wantErr: true},
	} {
		n, eof, err := ChunkWindow(tc.size, tc.offset, tc.maxBytes)
		if (err != nil) != tc.wantErr || n != tc.n || eof != tc.eof {
			t.Errorf("%s: ChunkWindow(%d, %d, %d) = %d, %v, %v; want %d, %v, error=%v",
				tc.name, tc.size, tc.offset, tc.maxBytes, n, eof, err, tc.n, tc.eof, tc.wantErr)
		}
	}
}
