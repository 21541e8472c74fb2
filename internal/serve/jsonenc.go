package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
)

// Hand-rolled encoders for the two hot response bodies. encoding/json's
// reflective struct walk plus its generic float path dominated the serve
// CPU profile; these emit byte-identical output with append-only calls.
// Byte identity with encoding/json is load-bearing — cached, coalesced
// and freshly built responses must compare equal — and is pinned by a
// differential test against json.Marshal.

// jsonPlain reports whether s renders under encoding/json as itself, with
// no escaping: printable ASCII minus the characters json escapes (quotes,
// backslash and the HTML-safety set).
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONString appends s as encoding/json renders a string. One that
// needs escaping goes through encoding/json itself rather than
// replicating the escaper.
func appendJSONString(b []byte, s string) []byte {
	if !jsonPlain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// newRangeBody starts a rangeResponse body — everything up to the first
// point object — in a buffer with room for points more bytes and the
// closing. The two range encoders below differ only in where the point
// objects come from.
func newRangeBody(file, rect string, count, points int) []byte {
	b := make([]byte, 0, 80+len(file)+len(rect)+points)
	b = append(b, `{"file":`...)
	b = appendJSONString(b, file)
	b = append(b, `,"rect":`...)
	b = appendJSONString(b, rect)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	return append(b, `,"points":[`...)
}

// encodeRangeBody renders a rangeResponse body (with trailing newline)
// from points in response order, formatting every float.
func encodeRangeBody(file, rect string, pts []geom.Point) ([]byte, error) {
	var err error
	// ~17 bytes per shortest-form float plus the per-point framing; an
	// overshoot here is cheaper than re-growing a multi-hundred-KB body.
	b := newRangeBody(file, rect, len(pts), 48*len(pts))
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = ops.AppendPointJSON(b, p); err != nil {
			return nil, err
		}
	}
	return append(b, "]}\n"...), nil
}

// encodeRangeBodyStreams renders a rangeResponse body from the serving
// executor's streams, the local and sharded engines' alike. A lone
// non-empty stream is copied whole — it may have shipped without keys. Two
// or more are k-way merged by (X, then Y) over their keys, copying each
// point's finished object out of its stream's Frag (an object ends at its
// first '}'; a comma separates it from the next); once a single stream is
// left its remainder is one copy. The body is sized from the streams' byte
// counts.
func encodeRangeBodyStreams(file, rect string, frags []shardFrag) []byte {
	total, payload, live := 0, 0, 0
	for _, f := range frags {
		total += f.matches
		payload += len(f.stream.Frag) + 1
		if f.matches > 0 {
			live++
		}
	}
	b := newRangeBody(file, rect, total, payload)
	if live == 1 {
		for _, f := range frags {
			b = append(b, f.stream.Frag...) // the empty ones add nothing
		}
		return append(b, "]}\n"...)
	}
	key := make([]int, 2*len(frags)) // per stream: next key index, then Frag offset
	off := key[len(frags):]
	for sep := false; live > 0; sep = true {
		best := -1
		var bx, by float64
		for i := range frags { // by index: ranging by value copies a shardFrag per candidate per point
			if keys := frags[i].stream.Keys[key[i]:]; len(keys) > 0 && (best < 0 || keys[0] < bx || (keys[0] == bx && keys[1] < by)) {
				best, bx, by = i, keys[0], keys[1]
			}
		}
		st := frags[best].stream
		rest := st.Frag[off[best]:]
		if sep {
			b = append(b, ',')
		}
		if key[best] += 2; live == 1 || key[best] == len(st.Keys) {
			b = append(b, rest...)
			key[best] = len(st.Keys)
			live--
			continue
		}
		end := bytes.IndexByte(rest, '}') + 1
		b = append(b, rest[:end]...)
		off[best] += end + 1
	}
	return append(b, "]}\n"...)
}

// encodeKNNBody renders a knnResponse body (with trailing newline).
func encodeKNNBody(file, point string, k int, nbs []neighborJSON) ([]byte, error) {
	var err error
	b := make([]byte, 0, 96+len(file)+len(point)+72*len(nbs))
	b = append(b, `{"file":`...)
	b = appendJSONString(b, file)
	b = append(b, `,"point":`...)
	b = appendJSONString(b, point)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(nbs)), 10)
	b = append(b, `,"neighbors":[`...)
	for i, n := range nbs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		if b, err = geomio.AppendJSONFloat(b, n.X); err != nil {
			return nil, err
		}
		b = append(b, `,"y":`...)
		if b, err = geomio.AppendJSONFloat(b, n.Y); err != nil {
			return nil, err
		}
		b = append(b, `,"dist":`...)
		if b, err = geomio.AppendJSONFloat(b, n.Dist); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	return b, nil
}
