// Package geom provides the computational-geometry kernel used by every
// layer of the system: primitive shapes (points, rectangles, segments,
// polygons), robust-enough predicates, and the classical single-machine
// algorithms (convex hull, skyline, closest pair, rotating calipers,
// polygon union) that the distributed operations build upon.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed as
// vectors.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form in hot loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Equal reports whether p and q are the same point.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Less orders points by x, breaking ties by y. It is the canonical sort
// order used by the divide-and-conquer algorithms.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Compare orders p and q as Less does, for slices.SortFunc, which then
// gives the permutation sort.Slice gives with Less (one algorithm), NaN
// and ±0 included, without reflective swaps.
func (p Point) Compare(q Point) int {
	switch {
	case p.Less(q):
		return -1
	case q.Less(p):
		return 1
	}
	return 0
}

// Dominates reports whether p dominates q in the skyline (max-max) sense:
// every coordinate of p is >= the corresponding coordinate of q with strict
// inequality in at least one.
func (p Point) Dominates(q Point) bool {
	return p.X >= q.X && p.Y >= q.Y && (p.X > q.X || p.Y > q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Orientation classifies the turn p->q->r.
type Orientation int

// Turn directions returned by Orient.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// Orient returns the orientation of the ordered triple (p, q, r).
func Orient(p, q, r Point) Orientation {
	v := cross3(p, q, r)
	switch {
	case v > 0:
		return CounterClockwise
	case v < 0:
		return Clockwise
	default:
		return Collinear
	}
}

// cross3 returns twice the signed area of triangle pqr.
func cross3(p, q, r Point) float64 {
	return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
}

// Area2 returns twice the signed area of triangle pqr (positive when pqr is
// counter-clockwise).
func Area2(p, q, r Point) float64 { return cross3(p, q, r) }

// InCircle reports whether point d lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c). It is the Delaunay predicate.
func InCircle(a, b, c, d Point) bool {
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// Circumcenter returns the center of the circle through a, b and c, and
// reports whether it exists (it does not when the points are collinear).
func Circumcenter(a, b, c Point) (Point, bool) {
	d := 2 * (a.X*(b.Y-c.Y) + b.X*(c.Y-a.Y) + c.X*(a.Y-b.Y))
	if d == 0 {
		return Point{}, false
	}
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{ux, uy}, true
}
