package geom

import "slices"

// Skyline returns the max-max skyline of pts: the points not dominated by
// any other point, where p dominates q when p.X >= q.X and p.Y >= q.Y with
// at least one strict inequality (paper §6). The result is sorted by
// increasing x (hence decreasing y).
//
// The input slice is not modified.
func Skyline(pts []Point) []Point {
	return SkylineQuadrant(pts, QuadMaxMax)
}

// Quadrant selects one of the four skyline orientations. The convex hull
// filter (paper §7.2) needs all four.
type Quadrant int

// The four skyline quadrants.
const (
	QuadMaxMax Quadrant = iota // prefer large x, large y
	QuadMaxMin                 // prefer large x, small y
	QuadMinMax                 // prefer small x, large y
	QuadMinMin                 // prefer small x, small y
)

// transform maps a point into max-max space for the given quadrant.
func (q Quadrant) transform(p Point) Point {
	switch q {
	case QuadMaxMin:
		return Point{p.X, -p.Y}
	case QuadMinMax:
		return Point{-p.X, p.Y}
	case QuadMinMin:
		return Point{-p.X, -p.Y}
	default:
		return p
	}
}

// SkylineQuadrant returns the skyline of pts in the given quadrant, sorted
// by increasing x.
func SkylineQuadrant(pts []Point, quad Quadrant) []Point {
	if len(pts) == 0 {
		return nil
	}
	work := make([]Point, len(pts))
	for i, p := range pts {
		work[i] = quad.transform(p)
	}
	sky := skylineMaxMax(work)
	for i, p := range sky {
		// transform is an involution, so it maps results back.
		sky[i] = quad.transform(p)
	}
	slices.SortFunc(sky, Point.Compare)
	return sky
}

// skylineMaxMax computes the max-max skyline via a right-to-left sweep of
// the points in canonical order: a point is on the skyline iff its y value
// exceeds every y seen so far (to its right).
func skylineMaxMax(pts []Point) []Point {
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	slices.SortFunc(sorted, Point.Compare)

	var sky []Point
	bestY := 0.0
	have := false
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		if !have || p.Y > bestY {
			sky = append(sky, p)
			bestY = p.Y
			have = true
		}
	}
	// Reverse into increasing-x order.
	for i, j := 0, len(sky)-1; i < j; i, j = i+1, j-1 {
		sky[i], sky[j] = sky[j], sky[i]
	}
	return sky
}

// SkylineBrute computes the max-max skyline by the O(n^2) definition. It is
// the oracle for differential tests.
func SkylineBrute(pts []Point) []Point {
	var sky []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Dominates(p) {
				dominated = true
				break
			}
			// Treat exact duplicates as one point: keep the first.
			if q.Equal(p) && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	slices.SortFunc(sky, Point.Compare)
	return sky
}

// MergeSkylines combines several partial max-max skylines into the skyline
// of their union. Partial skylines from non-spatially-partitioned data may
// overlap, so the merge recomputes the skyline of the concatenation
// (paper §6.1).
func MergeSkylines(parts ...[]Point) []Point {
	var all []Point
	for _, p := range parts {
		all = append(all, p...)
	}
	return Skyline(all)
}

// RectDominatedBy reports whether cell a is entirely dominated by cell b in
// the max-max sense (paper §6.2, Fig. 12): some corner of b that is
// guaranteed to contain a data point dominates the top-right corner of a.
// Because MBRs are minimal, each edge of b carries at least one data point,
// so its bottom-left, bottom-right and top-left corners are all dominated
// by actual data points of b.
func RectDominatedBy(a, b Rect) bool {
	target := Point{a.MaxX, a.MaxY}
	for _, c := range []Point{
		{b.MinX, b.MinY}, // bottom-left
		{b.MaxX, b.MinY}, // bottom-right
		{b.MinX, b.MaxY}, // top-left
	} {
		if c.Dominates(target) {
			return true
		}
	}
	return false
}

// RectDominatedByQuad generalizes RectDominatedBy to any quadrant, used by
// the convex hull filter which applies the skyline filter in all four
// orientations.
func RectDominatedByQuad(a, b Rect, quad Quadrant) bool {
	ta := transformRect(a, quad)
	tb := transformRect(b, quad)
	return RectDominatedBy(ta, tb)
}

func transformRect(r Rect, quad Quadrant) Rect {
	c1 := quad.transform(Point{r.MinX, r.MinY})
	c2 := quad.transform(Point{r.MaxX, r.MaxY})
	return NewRect(c1.X, c1.Y, c2.X, c2.Y)
}
