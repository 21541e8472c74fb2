package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"sync/atomic"
	"testing"
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
