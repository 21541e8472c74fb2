package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/rpc"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestWireCodecFailures: what fails a call over the wire codec, and what
// that costs the connection. A reply type the server cannot lay out is the
// handler's error — a rpc.ServerError on a connection that stays, like any
// other (TestPeersEvictsOnlyOnTransportError). Args or a reply with no
// layout fail the call before anything is sent. A frame longer than the
// limit, or a length prefix that is not the one encoding of its length, is
// transport damage: the connection is evicted and the next call redials.
func TestWireCodecFailures(t *testing.T) {
	ctx := context.Background()
	t.Run("reply type without a layout", func(t *testing.T) {
		p, _, ln := startScriptedPeer(t)
		var reply PeerMsg
		err := p.Call(ctx, ln.addr(), "Peer.Bare", peerMsg("x"), &reply)
		if !errors.As(err, new(rpc.ServerError)) || !strings.Contains(err.Error(), "no wire layout") {
			t.Fatalf("call to a handler whose reply has no layout = %v, want a rpc.ServerError naming it", err)
		}
		if err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("next"), &reply); err != nil || reply != "echo:next" {
			t.Fatalf("call after it = %q, %v", reply, err)
		}
		if n := ln.accepted.Load(); n != 1 {
			t.Fatalf("%d connections, want 1", n)
		}
	})
	t.Run("args or reply without a layout", func(t *testing.T) {
		p, _, ln := startScriptedPeer(t)
		var reply PeerMsg
		var bare string
		for name, err := range map[string]error{
			"args":  p.Call(ctx, ln.addr(), "Peer.Do", "plain", &reply),
			"reply": p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("x"), &bare),
		} {
			if err == nil || errors.As(err, new(rpc.ServerError)) || !strings.Contains(err.Error(), "no wire layout") {
				t.Errorf("%s without a layout: err = %v, want the caller's layout error", name, err)
			}
		}
		if n := ln.accepted.Load(); n != 0 {
			t.Fatalf("calls that cannot be encoded dialed %d connections", n)
		}
	})
	for name, damage := range map[string]func([]byte) []byte{
		"oversized frame": func([]byte) []byte { return binary.AppendUvarint(nil, maxFrameBytes+1) },
		// The reply frames here are shorter than 128 bytes, so their
		// prefix is one byte; padding it keeps the length it encodes.
		"non-minimal length prefix": func(p []byte) []byte { return append([]byte{p[0] | 0x80, 0x00}, p[1:]...) },
	} {
		t.Run(name, func(t *testing.T) {
			svc := &scriptedPeer{held: make(chan struct{}, 1), release: make(chan struct{})}
			srv := rpc.NewServer()
			if err := srv.RegisterName("Peer", svc); err != nil {
				t.Fatal(err)
			}
			ln := &damageFirst{countingListener: listenCounting(t), damage: damage}
			go ServeRPC(context.Background(), ln, srv)
			p := NewPeers()
			defer p.Close()
			var reply PeerMsg
			err := p.Call(ctx, ln.addr(), "Peer.Do", peerMsg("x"), &reply)
			if err == nil || errors.As(err, new(rpc.ServerError)) {
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
// and then returns an error.
type PooledService struct{}

func (PooledService) Get(arg PeerMsg, reply *PooledMsg) error {
	reply.Text = "pooled:" + string(arg)
	if arg == "fail" {
		return errors.New("scripted: failed after writing the reply")
	}
	return nil
}

// recordingConn keeps what is written to it, or fails every write.
type recordingConn struct {
	written []byte
	fail    bool
}

func (c *recordingConn) Read([]byte) (int, error) { return 0, io.EOF }
func (c *recordingConn) Close() error             { return nil }
func (c *recordingConn) Write(p []byte) (int, error) {
	if c.fail {
		return 0, errors.New("scripted: write failed")
	}
	c.written = append(c.written, p...)
	return len(p), nil
}

// TestWriteResponseReleaseRules: the server codec releases a pooled reply
// only once its frame is written — never on an error response, never when
// the write failed — and net/rpc's gob arm never releases one.
func TestWriteResponseReleaseRules(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		conn := &recordingConn{}
		c := &serverCodec{wireConn{rwc: conn}}
		atRelease := -1
		ok := &PooledMsg{Text: "ok", onRelease: func() { atRelease = len(conn.written) }}
		if err := c.WriteResponse(&rpc.Response{Seq: 1}, ok); err != nil {
			t.Fatal(err)
		}
		if atRelease != len(conn.written) || atRelease == 0 {
			t.Fatalf("released with %d of the frame's %d bytes written", atRelease, len(conn.written))
		}
		for name, tc := range map[string]struct {
			resp *rpc.Response
			fail bool
		}{
			"error response": {&rpc.Response{Seq: 2, Error: "boom"}, false},
			"failed write":   {&rpc.Response{Seq: 3}, true},
		} {
			conn.fail = tc.fail
			kept := true
			c.WriteResponse(tc.resp, &PooledMsg{Text: name, onRelease: func() { kept = false }})
			if !kept {
				t.Errorf("%s: the reply was released", name)
			}
		}
	})
	t.Run("wire and gob arms", func(t *testing.T) {
		pooledReleases.Lock()
		pooledReleases.texts = nil // a rerun (-count) starts clean
		pooledReleases.Unlock()
		srv := rpc.NewServer()
		if err := srv.RegisterName("Pooled", PooledService{}); err != nil {
			t.Fatal(err)
		}
		ln := listenCounting(t)
		go ServeRPC(context.Background(), ln, srv)
		p := NewPeers()
		defer p.Close()
		gob, err := rpc.Dial("tcp", ln.addr())
		if err != nil {
			t.Fatal(err)
		}
		defer gob.Close()
		var reply PooledMsg
		if err := p.Call(context.Background(), ln.addr(), "Pooled.Get", peerMsg("wire"), &reply); err != nil || reply.Text != "pooled:wire" {
			t.Fatalf("wire call = %q, %v", reply.Text, err)
		}
		if err := p.Call(context.Background(), ln.addr(), "Pooled.Get", peerMsg("fail"), &reply); !errors.As(err, new(rpc.ServerError)) {
			t.Fatalf("failing call = %v, want the handler's error", err)
		}
		for _, arg := range []string{"gob", "gob-after"} { // one connection: the first is fully written before the second is
			if err := gob.Call("Pooled.Get", PeerMsg(arg), &reply); err != nil || reply.Text != "pooled:"+arg {
				t.Fatalf("gob call = %q, %v", reply.Text, err)
			}
		}
		// The same connection again: its responses are written in order,
		// so once this one is released every earlier one has been decided.
		if err := p.Call(context.Background(), ln.addr(), "Pooled.Get", peerMsg("last"), &reply); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); !released("pooled:last"); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the last wire reply was never released")
			}
		}
		if !released("pooled:wire") {
			t.Error("a wire reply was not released")
		}
		if released("pooled:fail") {
			t.Error("the reply of an error response was released")
		}
		if released("pooled:gob") {
			t.Error("the gob arm released a reply")
		}
	})
}
