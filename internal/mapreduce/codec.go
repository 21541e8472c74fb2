package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"slices"

	"spatialhadoop/internal/wirefmt"
)

// The wire codec: how every RPC message crosses a connection. net/rpc
// keeps sequencing calls, matching replies and dispatching to methods;
// this codec replaces its default gob encoding at the two places a
// connection starts (Peers.dial, ServeRPC). A connection opens with the
// one byte wirePreamble, then carries frames, each written with one Write:
//
//	uvarint  length of the rest of the frame
//	uvarint  sequence number
//	uvarint  string length, then the string: the method name on a
//	         request, the handler's error on a response ("" for none)
//	bytes    the body: the args or reply in its layout, empty on an
//	         error response
//
// A body's layout is its type's wire method (wire.go), run by
// internal/wirefmt under the rules block frames and spill batches follow
// too: so a message has one encoding, and an accepted body re-encodes to
// the same bytes. The header's varints, the length prefix included, follow
// the same rules. A value with no layout fails its call; it is never sent
// any other way. There is no version field: both ends are the same binary.
//
// Each connection keeps its read and write buffers, and a codec for each
// direction, for its life. A frame longer than maxFrameBytes, or a length
// prefix that is not minimal, is damage, not data: the read fails, net/rpc
// fails the connection, and Peers evicts it.

// wirePreamble opens a codec connection. A gob stream — net/rpc's default
// codec, which ServeRPC still serves — opens with a message length whose
// first byte is 0x00–0x7F or 0xF8–0xFF, never this.
const wirePreamble byte = 0xD7

// maxFrameBytes bounds one frame. The largest messages are block frames,
// a block's size.
const maxFrameBytes = 1 << 30

// frameReadStep is how far a frame's read buffer grows ahead of the bytes
// that arrived: a length prefix alone never sizes an allocation.
const frameReadStep = 1 << 20

// wireMessage is a message's layout: its fields, named once, in order.
// The method has a pointer receiver, so args cross Peers.Call as pointers.
type wireMessage interface{ wire(*wirefmt.Codec) }

// errNoLayout fails a call whose args or reply has no wire layout.
func errNoLayout(v any) error {
	return fmt.Errorf("mapreduce: %T has no wire layout", v)
}

// checkLayout fails a call before anything is sent when its args or reply
// cannot cross the wire.
func checkLayout(args, reply any) error {
	for _, v := range [...]any{args, reply} {
		if _, ok := v.(wireMessage); !ok {
			return errNoLayout(v)
		}
	}
	return nil
}

// wireConn is one end of a codec connection. net/rpc reads a frame's
// header and then its body from one goroutine, and serialises writes on
// another, so each side keeps its own buffer and codec, with one user at a
// time.
type wireConn struct {
	rwc  io.ReadWriteCloser
	r    *bufio.Reader
	rbuf []byte        // the last frame read
	in   wirefmt.Codec // decoding it; its body waits here for decodeBody
	wbuf []byte
	out  wirefmt.Codec
}

// writeFrame lays out one frame in the write buffer — the length last, in
// the room left for it in front — and writes it with one Write.
func (c *wireConn) writeFrame(seq uint64, s string, body wireMessage) error {
	c.out.Encode(append(c.wbuf[:0], make([]byte, binary.MaxVarintLen64)...))
	c.out.Uvarint(&seq)
	c.out.String(&s)
	if body != nil {
		body.wire(&c.out)
	}
	w := c.out.Encoded()
	c.wbuf = w
	n := uint64(len(w) - binary.MaxVarintLen64)
	c.out.Encode(w[:0]) // the length lands at the front of the room, then moves to its end
	c.out.Uvarint(&n)
	head := len(c.out.Encoded())
	start := binary.MaxVarintLen64 - head
	copy(w[start:], w[:head])
	_, err := c.rwc.Write(w[start:])
	return err
}

// readFrame reads one frame and returns its header; the body waits in the
// read codec for decodeBody.
func (c *wireConn) readFrame() (seq uint64, s string, err error) {
	n, err := wirefmt.ReadUvarint(c.r)
	if err != nil {
		return 0, "", err
	}
	if n > maxFrameBytes {
		return 0, "", fmt.Errorf("mapreduce: a %d-byte frame exceeds the %d-byte limit", n, maxFrameBytes)
	}
	buf := c.rbuf[:0]
	for len(buf) < int(n) {
		step := min(int(n)-len(buf), frameReadStep)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(c.r, buf[len(buf):len(buf)+step]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, "", err
		}
		buf = buf[:len(buf)+step]
	}
	c.rbuf = buf
	c.in.Decode(buf)
	c.in.Uvarint(&seq)
	c.in.String(&s)
	if err := c.in.Err(); err != nil {
		return 0, "", err
	}
	return seq, s, nil
}

// decodeBody decodes the last frame's body into v. net/rpc passes nil to
// discard a body nobody waits for.
func (c *wireConn) decodeBody(v any) error {
	if v == nil {
		return nil
	}
	m, ok := v.(wireMessage)
	if !ok {
		return errNoLayout(v)
	}
	m.wire(&c.in)
	return c.in.Done()
}

func (c *wireConn) Close() error { return c.rwc.Close() }

// clientCodec is the calling end; Peers.dial installs it.
type clientCodec struct{ wireConn }

func (c *clientCodec) WriteRequest(r *rpc.Request, args any) error {
	m, ok := args.(wireMessage)
	if !ok {
		return errNoLayout(args)
	}
	return c.writeFrame(r.Seq, r.ServiceMethod, m)
}

func (c *clientCodec) ReadResponseHeader(r *rpc.Response) (err error) {
	r.Seq, r.Error, err = c.readFrame()
	return err
}

func (c *clientCodec) ReadResponseBody(reply any) error { return c.decodeBody(reply) }

// serverCodec is the accepting end; ServeRPC installs it.
type serverCodec struct{ wireConn }

func (c *serverCodec) ReadRequestHeader(r *rpc.Request) (err error) {
	r.Seq, r.ServiceMethod, err = c.readFrame()
	return err
}

func (c *serverCodec) ReadRequestBody(args any) error { return c.decodeBody(args) }

// releaser is a pooled reply (ExecRangeReply): its handler wrote into
// recycled capacity, which goes back once the reply is on the wire.
type releaser interface{ Release() }

// WriteResponse sends the reply, or the handler's error. A reply type with
// no layout is the handler's error too: net/rpc drops a failed write, and
// the caller would wait for an answer that never comes. A pooled reply is
// released once its frame is written — net/rpc never touches a reply after
// this call — and never on an error response or a failed write.
func (c *serverCodec) WriteResponse(r *rpc.Response, reply any) error {
	if r.Error != "" {
		return c.writeFrame(r.Seq, r.Error, nil)
	}
	m, ok := reply.(wireMessage)
	if !ok {
		return c.writeFrame(r.Seq, errNoLayout(reply).Error(), nil)
	}
	err := c.writeFrame(r.Seq, "", m)
	if rel, ok := reply.(releaser); ok && err == nil {
		rel.Release()
	}
	return err
}
