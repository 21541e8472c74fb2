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

// appendJSONFloat appends f exactly as encoding/json renders a float64
// (see geomio.AppendJSONFloat, shared with the pinned-partition fragment
// builder).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	return geomio.AppendJSONFloat(b, f)
}

// newRangeBody starts a rangeResponse body — everything up to the first
// point object — in a buffer with room for points more bytes and the
// closing. The three range encoders below differ only in where the point
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

// encodeRangeBodyMatches renders a rangeResponse body directly from
// per-partition sorted match streams: a k-way merge by (X, then Y) whose
// point objects are copied from the partitions' pre-encoded fragments
// instead of re-formatting floats (a partition without fragments formats
// its matches, failing like encoding/json on NaN/Inf). Byte-identical to
// sorting the matched points and calling encodeRangeBody (pinned by a
// differential test).
func encodeRangeBodyMatches(file, rect string, matches []ops.LocalMatch) (b []byte, err error) {
	total := 0
	payload := 0 // exact points-array byte size, from the fragment offsets
	for _, m := range matches {
		total += len(m.IDs)
		for _, id := range m.IDs {
			if m.Part.Frag == nil {
				payload += 48 * len(m.IDs)
				break
			}
			payload += int(m.Part.FragOff[id+1] - m.Part.FragOff[id])
		}
	}
	b = newRangeBody(file, rect, total, payload+total)
	// heads[i] indexes matches[i].IDs; linear min-scan per emit (the
	// planner caps local execution at a handful of partitions).
	heads := make([]int, len(matches))
	for n := 0; n < total; n++ {
		best := -1
		var bp geom.Point
		for i, m := range matches {
			if heads[i] == len(m.IDs) {
				continue
			}
			p := m.Part.Pts[m.IDs[heads[i]]]
			if best < 0 || p.X < bp.X || (p.X == bp.X && p.Y < bp.Y) {
				best, bp = i, p
			}
		}
		m := matches[best]
		id := m.IDs[heads[best]]
		heads[best]++
		if n > 0 {
			b = append(b, ',')
		}
		if m.Part.Frag != nil {
			b = append(b, m.Part.Frag[m.Part.FragOff[id]:m.Part.FragOff[id+1]]...)
		} else if b, err = ops.AppendPointJSON(b, bp); err != nil {
			return nil, err
		}
	}
	return append(b, "]}\n"...), nil
}

// encodeRangeBodyStreams renders a rangeResponse body from the sharded
// engine's fragments: the same k-way merge by (X, then Y), over the
// streams' shipped keys, copying each point's finished object out of its
// stream's Frag (an object ends at its first '}'; a comma separates it
// from the next). Once a single stream is left its remainder is one copy,
// so a one-partition answer never looks inside Frag. The body is sized
// from the fragment byte counts.
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
	key := make([]int, 2*len(frags)) // per stream: next key index, then Frag offset
	off := key[len(frags):]
	for sep := false; live > 0; sep = true {
		best := -1
		var bx, by float64
		for i, f := range frags {
			if keys := f.stream.Keys[key[i]:]; len(keys) > 0 && (best < 0 || keys[0] < bx || (keys[0] == bx && keys[1] < by)) {
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
		if b, err = appendJSONFloat(b, n.X); err != nil {
			return nil, err
		}
		b = append(b, `,"y":`...)
		if b, err = appendJSONFloat(b, n.Y); err != nil {
			return nil, err
		}
		b = append(b, `,"dist":`...)
		if b, err = appendJSONFloat(b, n.Dist); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	return b, nil
}
