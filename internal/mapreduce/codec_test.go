package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhadoop/internal/wirefmt"
)

// damagedConn writes damage(frame) in place of every frame.
type damagedConn struct {
	net.Conn
	damage func(frame []byte) []byte
}

func (c damagedConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(c.damage(p)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// damageFirst hands its first accepted connection a damagedConn.
type damageFirst struct {
	*countingListener
	damage func(frame []byte) []byte
	done   atomic.Bool
}

func (l *damageFirst) Accept() (net.Conn, error) {
	conn, err := l.countingListener.Accept()
	if err == nil && l.done.CompareAndSwap(false, true) {
		conn = damagedConn{conn, l.damage}
	}
	return conn, err
}

// TestWireCodecFailures: what a damaged frame costs the connection. A
// frame longer than the limit, or a length prefix that is not the one
// encoding of its length, is transport damage: the connection is evicted
// and the next call redials. (A value without a layout cannot be passed to
// Peers.Call or Handle at all: it does not compile.)
func TestWireCodecFailures(t *testing.T) {
	ctx := context.Background()
	for name, damage := range map[string]func([]byte) []byte{
		"oversized frame": func([]byte) []byte { return binary.AppendUvarint(nil, maxFrameBytes+1) },
		// The reply frames here are shorter than 128 bytes, so their
		// prefix is one byte; padding it keeps the length it encodes.
		"non-minimal length prefix": func(p []byte) []byte { return append([]byte{p[0] | 0x80, 0x00}, p[1:]...) },
	} {
		t.Run(name, func(t *testing.T) {
			ln := &damageFirst{countingListener: listenCounting(t), damage: damage}
			serveScripted(ln, newScriptedPeer())
			p := NewPeers()
			defer p.Close()
			var reply PeerMsg
			err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("x"), &reply)
			if err == nil || errors.As(err, new(ServerError)) {
				t.Fatalf("call answered by a damaged frame = %q, %v; want a transport error", reply, err)
			}
			if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("again"), &reply); err != nil || reply != "echo:again" {
				t.Fatalf("call after the damaged frame = %q, %v; want a redial", reply, err)
			}
			if n := ln.accepted.Load(); n != 2 {
				t.Fatalf("%d connections, want 2: the damaged one evicted, one redial", n)
			}
		})
	}
}

// tapListener records, per accepted connection, the bytes read from it and
// written to it.
type tapListener struct {
	*countingListener
	mu      sync.Mutex
	in, out []byte
}

type tapConn struct {
	net.Conn
	l *tapListener
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.in = append(c.l.in, p[:n]...)
	c.l.mu.Unlock()
	return n, err
}

func (c tapConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.out = append(c.l.out, p...)
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.countingListener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{conn, l}, nil
}

// TestFrameBytes pins what crosses the connection for a call, an error
// and a cancel: the preamble, then for each frame its length, sequence
// number (from 0), method name or error text, and body. A cancelled call
// adds its cancel frame and gets no response.
func TestFrameBytes(t *testing.T) {
	ln := &tapListener{countingListener: listenCounting(t)}
	svc := newScriptedPeer()
	serveScripted(ln, svc)
	t.Cleanup(svc.releaseAll)
	p := NewPeers()
	defer p.Close()
	var reply PeerMsg
	if err := p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("hi"), &reply); err != nil || reply != "echo:hi" {
		t.Fatalf("call = %q, %v", reply, err)
	}
	if err := p.Call(context.Background(), ln.addr(), "Peer.Do", peerMsg("reject"), &reply); !errors.As(err, new(ServerError)) {
		t.Fatalf("rejected call = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-svc.held
		cancel()
	}()
	if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("wait"), &reply); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v", err)
	}
	<-svc.ended
	frame := func(seq byte, s string, body string) []byte {
		rest := append([]byte{seq, byte(len(s))}, s...)
		rest = append(rest, body...)
		return append([]byte{byte(len(rest))}, rest...)
	}
	var wantIn []byte
	wantIn = append(wantIn, wirePreamble)
	wantIn = append(wantIn, frame(0, "Peer.Do", "\x02hi")...)
	wantIn = append(wantIn, frame(1, "Peer.Do", "\x06reject")...)
	wantIn = append(wantIn, frame(2, "Peer.Do", "\x04wait")...)
	wantIn = append(wantIn, frame(2, "", "")...) // the cancel frame: 02 02 00
	wantOut := append(frame(0, "", "\x07echo:hi"), frame(1, "scripted: rejected", "")...)
	waitUntil(t, "the cancel frame", func() bool {
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return len(ln.in) >= len(wantIn)
	})
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if !bytes.Equal(ln.in, wantIn) {
		t.Errorf("requests on the wire:\n got % x\nwant % x", ln.in, wantIn)
	}
	if !bytes.Equal(ln.out, wantOut) { // a cancelled call gets no response
		t.Errorf("responses on the wire:\n got % x\nwant % x", ln.out, wantOut)
	}
}

// PooledMsg is a reply with a Release method, as a pooled ExecRangeReply
// has: it records the release, and runs onRelease (set by the tests that
// build the reply themselves) at that moment.
type PooledMsg struct {
	Text      string
	onRelease func()
}

func (m *PooledMsg) wire(c *wirefmt.Codec) { c.String(&m.Text) }

// pooledReleases lists the Text of every PooledMsg released, in order.
var pooledReleases struct {
	sync.Mutex
	texts []string
}

func (m *PooledMsg) Release() {
	pooledReleases.Lock()
	pooledReleases.texts = append(pooledReleases.texts, m.Text)
	pooledReleases.Unlock()
	if m.onRelease != nil {
		m.onRelease()
	}
}

// released reports whether a PooledMsg with this text was released.
func released(text string) bool {
	pooledReleases.Lock()
	defer pooledReleases.Unlock()
	return slices.Contains(pooledReleases.texts, text)
}

// PooledService answers Get with a PooledMsg; "fail" writes into the reply
// and then returns an error, and "wait" writes into it and waits for its
// call to be cancelled.
type PooledService struct{ held chan struct{} }

func (s PooledService) Get(ctx context.Context, arg *PeerMsg, reply *PooledMsg) error {
	reply.Text = "pooled:" + string(*arg)
	switch *arg {
	case "fail":
		return errors.New("scripted: failed after writing the reply")
	case "wait":
		s.held <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// recordingConn keeps what is written to it, or fails every write.
type recordingConn struct {
	written []byte
	fail    bool
	closed  bool
}

func (c *recordingConn) Close() error { c.closed = true; return nil }
func (c *recordingConn) Write(p []byte) (int, error) {
	if c.fail {
		return 0, errors.New("scripted: write failed")
	}
	c.written = append(c.written, p...)
	return len(p), nil
}

// TestWriteResponseReleaseRules: the server releases a pooled reply once
// its handler has returned and the response frame, if any, is laid out —
// after the frame is written, on an error response, on a failed write (which
// closes the connection), and on a cancelled call, which gets no response.
func TestWriteResponseReleaseRules(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		conn := &recordingConn{}
		sc := &serverConn{conn: conn, wc: wireConn{w: conn}}
		atRelease := -1
		ok := &PooledMsg{Text: "ok", onRelease: func() { atRelease = len(conn.written) }}
		sc.finish(context.Background(), 1, ok, nil)
		if atRelease != len(conn.written) || atRelease == 0 {
			t.Fatalf("released with %d of the frame's %d bytes written", atRelease, len(conn.written))
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for name, tc := range map[string]struct {
			ctx  context.Context
			err  error
			fail bool
		}{
			"error response": {context.Background(), errors.New("boom"), false},
			"failed write":   {context.Background(), nil, true},
			"cancelled call": {cancelled, nil, false},
		} {
			conn.fail, conn.closed = tc.fail, false
			before := len(conn.written)
			released := false
			sc.finish(tc.ctx, 2, &PooledMsg{Text: name, onRelease: func() { released = true }}, tc.err)
			if !released {
				t.Errorf("%s: the reply was kept", name)
			}
			if conn.closed != tc.fail {
				t.Errorf("%s: connection closed %v, want %v", name, conn.closed, tc.fail)
			}
			if wrote := len(conn.written) > before; wrote != (tc.ctx == context.Background() && !tc.fail) {
				t.Errorf("%s: a response written: %v", name, wrote)
			}
		}
	})
	t.Run("served calls", func(t *testing.T) {
		pooledReleases.Lock()
		pooledReleases.texts = nil // a rerun (-count) starts clean
		pooledReleases.Unlock()
		svc := PooledService{held: make(chan struct{}, 1)}
		ln := listenCounting(t)
		go ServeRPC(context.Background(), ln, map[string]Handler{"Pooled.Get": Handle(svc.Get)}, nil)
		p := NewPeers()
		defer p.Close()
		var reply PooledMsg
		if err := p.Call(context.Background(), ln.addr(), "Pooled.Get", peerMsg("wire"), &reply); err != nil || reply.Text != "pooled:wire" {
			t.Fatalf("wire call = %q, %v", reply.Text, err)
		}
		if err := p.Call(context.Background(), ln.addr(), "Pooled.Get", peerMsg("fail"), &reply); !errors.As(err, new(ServerError)) {
			t.Fatalf("failing call = %v, want the handler's error", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-svc.held
			cancel()
		}()
		if err := p.Call(ctx, ln.addr(), "Pooled.Get", peerMsg("wait"), &reply); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v", err)
		}
		for _, text := range []string{"pooled:wire", "pooled:fail", "pooled:wait"} {
			waitUntil(t, text+" to be released", func() bool { return released(text) })
		}
	})
}
