// Package geomio provides the text record encodings used for all data in
// the block file system, mirroring Hadoop's text input/output formats.
// Points encode as "x,y"; segments as two points separated by a space;
// regions (multi-ring polygons) as rings separated by '|' with
// space-separated vertices.
package geomio

import (
	"fmt"
	"strconv"
	"strings"

	"spatialhadoop/internal/geom"
)

// MaxPointLen is the longest "x,y": two 24-byte floats (sign, 17 digits,
// point, e±308) and the comma.
const MaxPointLen = 2*24 + 1

// AppendPoint appends p as "x,y" to dst, each coordinate in the shortest
// form that ParseFloat reads back to the same bits, spelled as
// strconv.AppendFloat(dst, f, 'g', -1, 64) does: typical coordinates take
// far fewer than 17 digits, which roughly halves both the format and the
// re-parse cost on the record hot path.
func AppendPoint(dst []byte, p geom.Point) []byte {
	dst = appendG(dst, p.X)
	dst = append(dst, ',')
	return appendG(dst, p.Y)
}

// PointLen is len(AppendPoint(nil, p)), computed without writing it.
func PointLen(p geom.Point) int { return gLen(p.X) + 1 + gLen(p.Y) }

// EncodePoint formats p as "x,y": both floats into a stack buffer, one
// allocation for the string.
func EncodePoint(p geom.Point) string {
	var buf [MaxPointLen]byte
	return string(AppendPoint(buf[:0], p))
}

// DecodePoint parses a point encoded by EncodePoint.
func DecodePoint(s string) (geom.Point, error) {
	i := strings.IndexByte(s, ',')
	if i < 0 {
		return geom.Point{}, fmt.Errorf("geomio: bad point %q", s)
	}
	x, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("geomio: bad point x in %q: %v", s, err)
	}
	y, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("geomio: bad point y in %q: %v", s, err)
	}
	return geom.Point{X: x, Y: y}, nil
}

// EncodePoints encodes a batch of points, one record each.
func EncodePoints(pts []geom.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = EncodePoint(p)
	}
	return out
}

// DecodePoints decodes a batch of point records.
func DecodePoints(recs []string) ([]geom.Point, error) {
	out := make([]geom.Point, len(recs))
	for i, r := range recs {
		p, err := DecodePoint(r)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// EncodeSegment formats s as "x1,y1 x2,y2".
func EncodeSegment(s geom.Segment) string {
	return EncodePoint(s.A) + " " + EncodePoint(s.B)
}

// DecodeSegment parses a segment encoded by EncodeSegment.
func DecodeSegment(s string) (geom.Segment, error) {
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		return geom.Segment{}, fmt.Errorf("geomio: bad segment %q", s)
	}
	a, err := DecodePoint(s[:i])
	if err != nil {
		return geom.Segment{}, err
	}
	b, err := DecodePoint(s[i+1:])
	if err != nil {
		return geom.Segment{}, err
	}
	return geom.Segment{A: a, B: b}, nil
}

// EncodeSegments encodes a batch of segments, one record each.
func EncodeSegments(segs []geom.Segment) []string {
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = EncodeSegment(s)
	}
	return out
}

// DecodeSegments decodes a batch of segment records.
func DecodeSegments(recs []string) ([]geom.Segment, error) {
	out := make([]geom.Segment, len(recs))
	for i, r := range recs {
		s, err := DecodeSegment(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// EncodeRegion formats a region as '|'-separated rings of space-separated
// vertices.
func EncodeRegion(rg geom.Region) string {
	var buf []byte
	for ri, ring := range rg.Rings {
		if ri > 0 {
			buf = append(buf, '|')
		}
		for i, p := range ring.Vertices {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = AppendPoint(buf, p)
		}
	}
	return string(buf)
}

// DecodeRegion parses a region encoded by EncodeRegion.
func DecodeRegion(s string) (geom.Region, error) {
	if s == "" {
		return geom.Region{}, nil
	}
	var rg geom.Region
	for _, ringStr := range strings.Split(s, "|") {
		fields := strings.Fields(ringStr)
		if len(fields) == 0 {
			continue
		}
		ring := geom.Polygon{Vertices: make([]geom.Point, 0, len(fields))}
		for _, f := range fields {
			p, err := DecodePoint(f)
			if err != nil {
				return geom.Region{}, err
			}
			ring.Vertices = append(ring.Vertices, p)
		}
		rg.Rings = append(rg.Rings, ring)
	}
	return rg, nil
}

// EncodePolygon formats a single-ring polygon (a region with one ring).
func EncodePolygon(pg geom.Polygon) string {
	return EncodeRegion(geom.RegionOf(pg))
}

// DecodePolygon parses a polygon record, taking the first ring.
func DecodePolygon(s string) (geom.Polygon, error) {
	rg, err := DecodeRegion(s)
	if err != nil {
		return geom.Polygon{}, err
	}
	if len(rg.Rings) == 0 {
		return geom.Polygon{}, fmt.Errorf("geomio: empty polygon %q", s)
	}
	return rg.Rings[0], nil
}

// EncodeRect formats r as "minx,miny,maxx,maxy".
func EncodeRect(r geom.Rect) string {
	var buf [2*MaxPointLen + 1]byte
	b := AppendPoint(buf[:0], geom.Point{X: r.MinX, Y: r.MinY})
	b = append(b, ',')
	return string(AppendPoint(b, geom.Point{X: r.MaxX, Y: r.MaxY}))
}

// DecodeRect parses a rectangle encoded by EncodeRect.
func DecodeRect(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("geomio: bad rect %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("geomio: bad rect coordinate %q: %v", p, err)
		}
		v[i] = f
	}
	return geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}
