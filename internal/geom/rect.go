package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle described by its minimum and maximum
// corners. A Rect is the minimum bounding rectangle (MBR) currency of the
// whole system: partitions, index cells and shapes all expose one.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Rect union: a rectangle that
// contains nothing and expands to whatever is added to it.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// WorldRect returns a rectangle covering the entire plane.
func WorldRect() Rect {
	return Rect{
		MinX: math.Inf(-1), MinY: math.Inf(-1),
		MaxX: math.Inf(1), MaxY: math.Inf(1),
	}
}

// NewRect returns the rectangle with the given corners, normalizing the
// coordinate order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: math.Min(x1, x2), MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2), MaxY: math.Max(y1, y2),
	}
}

// RectOf returns the MBR of a set of points.
func RectOf(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExpandPoint(p)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r (zero for empty rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Corners returns the four corner points of r in counter-clockwise order
// starting from the bottom-left corner.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// TopLeft returns the top-left corner, the point with the highest dominance
// power over cells to the left (paper §6.3).
func (r Rect) TopLeft() Point { return Point{r.MinX, r.MaxY} }

// BottomRight returns the bottom-right corner, the point with the highest
// dominance power over cells below (paper §6.3).
func (r Rect) BottomRight() Point { return Point{r.MaxX, r.MinY} }

// ContainsPoint reports whether p lies in r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsPointExclusive reports whether p lies in the half-open cell
// [MinX,MaxX) x [MinY,MaxY). Disjoint partitioners use it so a point on a
// shared edge belongs to exactly one cell.
func (r Rect) ContainsPointExclusive(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// StrictlyContainsPoint reports whether p lies in the interior of r.
func (r Rect) StrictlyContainsPoint(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExpandPoint returns r grown to include p.
func (r Rect) ExpandPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X), MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X), MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Buffer returns r grown by d on every side (shrunk when d is negative).
func (r Rect) Buffer(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Inner returns the rectangle obtained by moving every side of r inward by
// d. The closest-pair pruning step keeps only points outside Inner(delta).
func (r Rect) Inner(d float64) Rect {
	return Rect{MinX: r.MinX + d, MinY: r.MinY + d, MaxX: r.MaxX - d, MaxY: r.MaxY - d}
}

// MinDist returns the minimum distance between any point of r and any point
// of s (zero when they intersect).
func (r Rect) MinDist(s Rect) float64 {
	dx := math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX))
	dy := math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum distance between any point of r and any point
// of s: the largest pairwise corner distance. It is the farthest-pair upper
// bound of paper §8.2.
func (r Rect) MaxDist(s Rect) float64 {
	best := 0.0
	for _, a := range r.Corners() {
		for _, b := range s.Corners() {
			if d := a.Dist(b); d > best {
				best = d
			}
		}
	}
	return best
}

// FarthestPairLowerBound returns the farthest-pair lower bound between two
// minimal MBRs (paper §8.2, Fig. 18a): because each MBR has at least one
// data point on each of its four sides, there is guaranteed to be a pair at
// least as far apart as the larger of the maximum horizontal-side and
// maximum vertical-side separations.
func (r Rect) FarthestPairLowerBound(s Rect) float64 {
	// Maximum separation between a vertical side of r and a vertical side
	// of s; points on those sides differ at least that much in x.
	dx := math.Max(math.Abs(s.MaxX-r.MinX), math.Abs(r.MaxX-s.MinX))
	dy := math.Max(math.Abs(s.MaxY-r.MinY), math.Abs(r.MaxY-s.MinY))
	return math.Max(dx, dy)
}

// MinDistPoint returns the minimum distance from p to any point of r.
func (r Rect) MinDistPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
