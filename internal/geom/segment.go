package geom

import (
	"fmt"
	"math"
	"slices"
)

// Segment is a line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of s.
func (s Segment) Midpoint() Point { return Midpoint(s.A, s.B) }

// Bounds returns the MBR of s.
func (s Segment) Bounds() Rect {
	return NewRect(s.A.X, s.A.Y, s.B.X, s.B.Y)
}

// Reverse returns s with its endpoints swapped.
func (s Segment) Reverse() Segment { return Segment{A: s.B, B: s.A} }

// Canonical returns s oriented so that A <= B in the canonical point order.
// Canonical segments compare equal regardless of original direction, which
// lets union results from different execution plans be compared as sets.
func (s Segment) Canonical() Segment {
	if s.B.Less(s.A) {
		return s.Reverse()
	}
	return s
}

// IsDegenerate reports whether the segment has zero length.
func (s Segment) IsDegenerate() bool { return s.A.Equal(s.B) }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("%v-%v", s.A, s.B) }

// ContainsPoint reports whether p lies on s (within a small tolerance
// proportional to the segment length). Degenerate and near-degenerate
// segments contain only points coincident with their endpoints.
func (s Segment) ContainsPoint(p Point) bool {
	const eps = 1e-9
	d := s.B.Sub(s.A)
	dn := d.Norm()
	if dn <= eps {
		return p.Dist(s.A) <= eps
	}
	ap := p.Sub(s.A)
	// Perpendicular distance from the segment's line.
	if math.Abs(d.Cross(ap))/dn > eps*math.Max(1, dn) {
		return false
	}
	t := ap.Dot(d)
	return t >= -eps && t <= d.Dot(d)+eps
}

// IntersectSegments computes the intersection of s and t. It returns the
// intersection points (zero, one, or — for collinear overlap — the two
// endpoints of the shared sub-segment). Parallelism and collinearity are
// decided with a small relative tolerance so that copies of the same
// boundary piece reconstructed with last-bit jitter are recognized as
// overlapping rather than crossing.
func IntersectSegments(s, t Segment) []Point {
	p, r := s.A, s.B.Sub(s.A)
	q, u := t.A, t.B.Sub(t.A)
	rxu := r.Cross(u)
	qp := q.Sub(p)

	if math.Abs(rxu) <= 1e-12*r.Norm()*u.Norm() {
		// Parallel. Collinear when the offset between the lines is
		// negligible relative to the geometry.
		if math.Abs(qp.Cross(r)) > 1e-9*math.Max(1, qp.Norm())*r.Norm() {
			return nil // parallel, non-intersecting
		}
		// Collinear: project onto r and find the overlap interval.
		rr := r.Dot(r)
		if rr == 0 {
			if t.ContainsPoint(p) {
				return []Point{p}
			}
			return nil
		}
		t0 := qp.Dot(r) / rr
		t1 := t0 + u.Dot(r)/rr
		lo, hi := math.Min(t0, t1), math.Max(t0, t1)
		lo, hi = math.Max(lo, 0), math.Min(hi, 1)
		if lo > hi {
			return nil
		}
		a := p.Add(r.Scale(lo))
		b := p.Add(r.Scale(hi))
		if a.Equal(b) {
			return []Point{a}
		}
		return []Point{a, b}
	}

	tt := qp.Cross(u) / rxu
	uu := qp.Cross(r) / rxu
	const eps = 1e-12
	if tt < -eps || tt > 1+eps || uu < -eps || uu > 1+eps {
		return nil
	}
	return []Point{p.Add(r.Scale(clamp01(tt)))}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// cut is a point of a segment at parameter t along it.
type cut struct {
	t float64
	p Point
}

// compareCuts orders cuts by t; it is < 0 exactly when a.t < b.t.
func compareCuts(a, b cut) int {
	switch {
	case a.t < b.t:
		return -1
	case b.t < a.t:
		return 1
	}
	return 0
}

// SplitAt returns s cut into sub-segments at the given points. Points not
// on the segment are ignored; the result is ordered from A to B and
// degenerate pieces are dropped.
func (s Segment) SplitAt(pts []Point) []Segment {
	if len(pts) == 0 {
		return []Segment{s}
	}
	d := s.B.Sub(s.A)
	dd := d.Dot(d)
	cuts := make([]cut, 0, len(pts)+2)
	cuts = append(cuts, cut{0, s.A}, cut{1, s.B})
	for _, p := range pts {
		if !s.ContainsPoint(p) {
			continue
		}
		t := 0.0
		if dd > 0 {
			t = p.Sub(s.A).Dot(d) / dd
		}
		cuts = append(cuts, cut{clamp01(t), p})
	}
	slices.SortFunc(cuts, compareCuts)
	out := make([]Segment, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		seg := Segment{A: cuts[i-1].p, B: cuts[i].p}
		if !seg.IsDegenerate() {
			out = append(out, seg)
		}
	}
	return out
}

// ClipToRect returns the portion of s inside r and reports whether any
// portion remains. It implements Liang–Barsky clipping and is the pruning
// primitive of the enhanced union algorithm (paper §4.4).
func (s Segment) ClipToRect(r Rect) (Segment, bool) {
	t0, t1 := 0.0, 1.0
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y

	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}

	if !clip(-dx, s.A.X-r.MinX) || !clip(dx, r.MaxX-s.A.X) ||
		!clip(-dy, s.A.Y-r.MinY) || !clip(dy, r.MaxY-s.A.Y) {
		return Segment{}, false
	}
	out := Segment{
		A: Point{s.A.X + t0*dx, s.A.Y + t0*dy},
		B: Point{s.A.X + t1*dx, s.A.Y + t1*dy},
	}
	if out.IsDegenerate() {
		return Segment{}, false
	}
	return out, true
}
