package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"spatialhadoop/internal/wirefmt"
)

// The wire codec: how every call crosses a connection. A connection opens
// with the one byte wirePreamble, then carries frames in both directions,
// each written with one Write:
//
//	uvarint  length of the rest of the frame
//	uvarint  sequence number
//	uvarint  string length, then the string: the method name on a
//	         request, the handler's error on a response ("" for none)
//	bytes    the body: the args or reply in its layout, empty on an
//	         error response
//
// A request whose method is "" is a cancel frame: it has no body and ends
// the call with that sequence number, which gets no response. Peers.Call
// sends one when its context ends (peers.go).
//
// A body's layout is its type's wire method (wire.go), run by
// internal/wirefmt under the rules block frames and spill batches follow
// too: so a message has one encoding, and an accepted body re-encodes to
// the same bytes. The header's varints, the length prefix included, follow
// the same rules. Only a WireMessage crosses: Peers.Call and Handle take
// nothing else, so a value without a layout does not compile into a call.
// There is no version field: both ends are the same binary.
//
// Each connection keeps its read and write buffers, and a codec for each
// direction, for its life. A frame longer than maxFrameBytes, or a length
// prefix that is not minimal, is damage, not data: the read fails and the
// connection with it.

// wirePreamble opens a codec connection. A gob stream — which the worker's
// gob arm still serves — opens with a message length whose first byte is
// 0x00–0x7F or 0xF8–0xFF, never this.
const wirePreamble byte = 0xD7

// maxFrameBytes bounds one frame. The largest messages are block frames,
// a block's size.
const maxFrameBytes = 1 << 30

// frameReadStep is how far a frame's read buffer grows ahead of the bytes
// that arrived: a length prefix alone never sizes an allocation.
const frameReadStep = 1 << 20

// WireMessage is a message's layout: its fields, named once, in order.
// Only this package's message types (wire.go) have one. The method has a
// pointer receiver, so messages cross as pointers.
type WireMessage interface{ wire(*wirefmt.Codec) }

// wireConn is one end of a codec connection. One goroutine reads frames
// (a connection's read loop) and writers take turns under a lock, so each
// direction keeps its own buffer and codec, with one user at a time.
type wireConn struct {
	w    io.Writer
	r    *bufio.Reader
	rbuf []byte        // the last frame read
	in   wirefmt.Codec // decoding it; its body waits here for decodeBody
	wbuf []byte
	out  wirefmt.Codec
}

// writeFrame lays out one frame in the write buffer — the length last, in
// the room left for it in front — and writes it with one Write.
func (c *wireConn) writeFrame(seq uint64, s string, body WireMessage) error {
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
	_, err := c.w.Write(w[start:])
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

// decodeBody decodes the last frame's body into m.
func (c *wireConn) decodeBody(m WireMessage) error {
	m.wire(&c.in)
	return c.in.Done()
}
