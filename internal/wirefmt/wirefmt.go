// Package wirefmt is the one byte layout of every binary message in this
// repository: RPC bodies (internal/mapreduce/wire.go), the pair batches of
// spill streams, and block frames (internal/dfs/frame.go).
//
// A message names its fields once, in one function over a *Codec, and the
// Codec's direction decides whether that function writes them or reads
// them:
//
//	func (a *HeartbeatArgs) wire(c *wirefmt.Codec) { c.Int64(&a.WorkerID) }
//
// So an encoder and its decoder cannot disagree. The layout rules are
// minimal-length uvarints, zig-zag varints for signed integers,
// fixed-width little-endian IEEE-754 bits for floats, a count before every
// slice or map that decoding checks against the bytes present before
// allocating from it, map entries in strictly ascending key order, and no
// trailing bytes. A message therefore has one encoding, and a body that
// decodes re-encodes to the same bytes.
//
// Decoding sets every field it reaches and aliases nothing of its input: a
// string list's text is one copy of the bytes it spans, and a []byte or
// []float64 lands in the destination's own capacity. The first malformed
// field fails the decode and empties the Codec, so every later field reads
// as its zero value: a message reads its fields unconditionally, and its
// caller checks once, at Done.
package wirefmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"spatialhadoop/internal/geom"
)

// Codec is one message's bytes in one direction. The zero value encodes
// into a nil buffer; Encode and Decode start a message.
type Codec struct {
	b   []byte // encoding: everything written; decoding: what is left
	dec bool
	err error
}

// Encode starts encoding, appending to dst.
func (c *Codec) Encode(dst []byte) { *c = Codec{b: dst} }

// Decode starts decoding src.
func (c *Codec) Decode(src []byte) { *c = Codec{b: src, dec: true} }

// Decoding reports the direction.
func (c *Codec) Decoding() bool { return c.dec }

// Encoded returns the encoding's buffer: the dst it started from, then
// every field written.
func (c *Codec) Encoded() []byte { return c.b }

// Err is the first malformed field's error, nil while every field so far
// decoded.
func (c *Codec) Err() error { return c.err }

// Done is a decode's one check: no field was malformed and no byte is left
// over. It is nil for an encode.
func (c *Codec) Done() error {
	if c.dec && c.err == nil && len(c.b) > 0 {
		c.Fail("%d trailing bytes", len(c.b))
	}
	return c.err
}

// Fail records that the message is malformed, unless an earlier field
// already did, and ends the decode: every later field reads as its zero
// value.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = malformed(format, args...)
	}
	if c.dec {
		c.b = nil
	}
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("wirefmt: malformed: "+format, args...)
}

// uvarint reads the minimal-length uvarint at the front of b and its
// length; n <= 0 for a truncated, overlong or zero-padded one.
func uvarint(b []byte) (v uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// Uvarint runs a minimal-length uvarint.
func (c *Codec) Uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	u, n := uvarint(c.b)
	if n <= 0 {
		c.Fail("bad varint")
		*v = 0
		return
	}
	c.b = c.b[n:]
	*v = u
}

// Int64 runs a zig-zag varint, as binary.AppendVarint lays it out.
func (c *Codec) Int64(v *int64) {
	u := uint64(*v)<<1 ^ uint64(*v>>63)
	c.Uvarint(&u)
	if c.dec {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int runs an int as an Int64.
func (c *Codec) Int(v *int) {
	w := int64(*v)
	c.Int64(&w)
	if c.dec {
		if int64(int(w)) != w {
			c.Fail("%d overflows int", w)
			w = 0
		}
		*v = int(w)
	}
}

// Byte runs one raw byte.
func (c *Codec) Byte(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
		return
	}
	if len(c.b) == 0 {
		c.Fail("byte cut short")
		*v = 0
		return
	}
	*v, c.b = c.b[0], c.b[1:]
}

// Bool runs a byte that is 0 or 1.
func (c *Codec) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.Byte(&b)
	if c.dec {
		if b > 1 {
			c.Fail("bool %d", b)
		}
		*v = b == 1
	}
}

// Float runs 8 bytes of IEEE-754 bits, so every value, NaN payloads and
// -0 included, crosses exactly.
func (c *Codec) Float(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	if len(c.b) < 8 {
		c.Fail("float cut short")
		*v = 0
		return
	}
	*v, c.b = math.Float64frombits(binary.LittleEndian.Uint64(c.b)), c.b[8:]
}

// Rect runs a rectangle's four corners.
func (c *Codec) Rect(r *geom.Rect) {
	c.Float(&r.MinX)
	c.Float(&r.MinY)
	c.Float(&r.MaxX)
	c.Float(&r.MaxY)
}

// count runs the count of a list whose n entries take at least minSize
// bytes each; decoding returns the count read, rejecting one whose entries
// cannot fit in what is left.
func (c *Codec) count(n, minSize int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if c.dec && u > uint64(len(c.b)/minSize) {
		c.Fail("count %d beyond the %d bytes left", u, len(c.b))
		return 0
	}
	return int(u)
}

// cut takes the next n bytes, n already checked against what is left.
func (c *Codec) cut(n int) []byte {
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// String runs a length and the string's bytes.
func (c *Codec) String(s *string) {
	n := c.count(len(*s), 1)
	if c.dec {
		*s = string(c.cut(n))
	} else {
		c.b = append(c.b, *s...)
	}
}

// Bytes runs a length and the bytes; decoding fills *p's capacity.
func (c *Codec) Bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	if c.dec {
		*p = append((*p)[:0], c.cut(n)...)
	} else {
		c.b = append(c.b, *p...)
	}
}

// Floats runs a count, then 8 bytes a value; decoding fills *vs's
// capacity.
func (c *Codec) Floats(vs *[]float64) {
	n := c.count(len(*vs), 8)
	if !c.dec {
		b := slices.Grow(c.b, 8*n)
		for _, v := range *vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		c.b = b
		return
	}
	dst := slices.Grow((*vs)[:0], n)[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:]))
	}
	c.b = c.b[8*n:]
	*vs = dst
}

// Int64s runs a count, then each value as an Int64; decoding fills *vs's
// capacity.
func (c *Codec) Int64s(vs *[]int64) {
	n := c.count(len(*vs), 1)
	if c.dec {
		*vs = slices.Grow((*vs)[:0], n)[:n]
	}
	for i := range *vs {
		c.Int64(&(*vs)[i])
	}
}

// Points runs pts as a column, X then Y of each point in 8 bytes each,
// behind no count: the caller runs one (Len) and decoding has sized pts
// from it.
func (c *Codec) Points(pts []geom.Point) {
	if !c.dec {
		b := slices.Grow(c.b, 16*len(pts))
		for _, p := range pts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
		}
		c.b = b
		return
	}
	if len(pts) > len(c.b)/16 {
		c.Fail("%d points beyond the %d bytes left", len(pts), len(c.b))
		return
	}
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(c.b[16*i:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(c.b[16*i+8:]))
	}
	c.b = c.b[16*len(pts):]
}

// Strings runs a count, then each string.
func (c *Codec) Strings(ss *[]string) {
	Len(c, ss, 1)
	c.Spans(len(*ss), func(i int) *string { return &(*ss)[i] })
}

// Spans runs n strings, the i-th at at(i). Decoding cuts all n out of one
// copy of the bytes they span, so a list costs one allocation for its text
// however long it is; a malformed list sets none of them.
func (c *Codec) Spans(n int, at func(i int) *string) {
	if !c.dec {
		b := c.b
		for i := 0; i < n; i++ {
			s := *at(i)
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		}
		c.b = b
		return
	}
	// First pass: every length is a minimal uvarint within what is left.
	rest := c.b
	for i := 0; i < n; i++ {
		l, k := uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			c.Fail("string %d of %d cut short", i, n)
			return
		}
		rest = rest[k+int(l):]
	}
	span := c.b[:len(c.b)-len(rest)]
	c.b = rest
	// Second pass, over bytes known good: cut the strings out of one copy.
	arena := string(span)
	for i, off := 0, 0; i < n; i++ {
		l, k := uvarint(span[off:])
		off += k
		*at(i) = arena[off : off+int(l)]
		off += int(l)
	}
}

// Len runs the length of *s as a count of elements of at least minSize
// bytes each. Decoding sets *s to a fresh slice of that length, nil for
// none; the caller then runs the elements.
func Len[T any](c *Codec, s *[]T, minSize int) {
	n := c.count(len(*s), minSize)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// Slice runs a count, then each element of *s through elem, every element
// at least minSize bytes.
func Slice[T any](c *Codec, s *[]T, minSize int, elem func(*Codec, *T)) {
	Len(c, s, minSize)
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map runs a count, then each entry of *m in ascending key order: the key,
// then the value through elem, every entry at least minSize bytes.
// Decoding sets *m to a fresh map, nil for none, and rejects keys that do
// not ascend strictly — any other order, or a repeated key, would
// re-encode differently.
func Map[V any](c *Codec, m *map[string]V, minSize int, elem func(*Codec, *V)) {
	var v V
	if !c.dec {
		keys := make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.count(len(keys), minSize)
		for _, k := range keys {
			v = (*m)[k]
			c.String(&k)
			elem(c, &v)
		}
		return
	}
	n := c.count(0, minSize)
	*m = nil
	if n == 0 {
		return
	}
	out := make(map[string]V, n)
	var zero V
	prev := ""
	for i := 0; i < n && c.err == nil; i++ {
		var k string
		c.String(&k)
		if i > 0 && k <= prev {
			c.Fail("map key %q after %q", k, prev)
		}
		v = zero
		elem(c, &v)
		out[k], prev = v, k
	}
	*m = out
}

// ReadUvarint reads one uvarint from r under Uvarint's rule: a
// non-minimal or overflowing one is malformed.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		buf[i] = b
		if b < 0x80 {
			if v, n := uvarint(buf[:i+1]); n > 0 {
				return v, nil
			}
			break
		}
	}
	return 0, malformed("bad varint")
}
