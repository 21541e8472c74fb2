package geom

import "slices"

// ConvexHull returns the convex hull of pts using Andrew's monotone chain
// algorithm (paper §7). The result is in counter-clockwise order with no
// collinear interior vertices. Degenerate inputs (fewer than three distinct
// points, or all collinear) return the distinct extreme points.
//
// The input slice is not modified.
func ConvexHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	slices.SortFunc(sorted, Point.Compare)
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if !p.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		out := make([]Point, len(uniq))
		copy(out, uniq)
		return out
	}
	return hullOfSorted(uniq)
}

// hullOfSorted computes the hull of points already sorted by (x, y) with no
// duplicates.
func hullOfSorted(pts []Point) []Point {
	n := len(pts)
	hull := make([]Point, 0, 2*n)
	// Lower chain.
	for _, p := range pts {
		for len(hull) >= 2 && Area2(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := pts[i]
		for len(hull) >= lower && Area2(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1] // last point repeats the first
}

// IsConvex reports whether the ring makes only counter-clockwise (or
// collinear) turns. It is the property checked by the hull tests.
func IsConvex(ring []Point) bool {
	n := len(ring)
	if n < 3 {
		return true
	}
	for i := 0; i < n; i++ {
		a, b, c := ring[i], ring[(i+1)%n], ring[(i+2)%n]
		if Orient(a, b, c) == Clockwise {
			return false
		}
	}
	return true
}

// FarthestPair returns the two points of pts at maximum Euclidean distance
// and that distance. It computes the convex hull and walks it with the
// rotating-calipers method (paper §8), falling back to the trivial scan for
// tiny hulls.
func FarthestPair(pts []Point) (Point, Point, float64) {
	hull := ConvexHull(pts)
	return farthestOnHull(hull)
}

// farthestOnHull runs rotating calipers over a convex CCW ring.
func farthestOnHull(hull []Point) (Point, Point, float64) {
	n := len(hull)
	switch n {
	case 0:
		return Point{}, Point{}, 0
	case 1:
		return hull[0], hull[0], 0
	case 2:
		return hull[0], hull[1], hull[0].Dist(hull[1])
	}
	bestA, bestB := hull[0], hull[1]
	best := bestA.Dist2(bestB)
	j := 1
	for i := 0; i < n; i++ {
		ni := (i + 1) % n
		// Advance the antipodal pointer while the triangle area keeps
		// growing: the farthest vertex from edge (i, i+1).
		for {
			nj := (j + 1) % n
			if Area2(hull[i], hull[ni], hull[nj]) > Area2(hull[i], hull[ni], hull[j]) {
				j = nj
			} else {
				break
			}
		}
		for _, cand := range [2]Point{hull[i], hull[ni]} {
			if d := cand.Dist2(hull[j]); d > best {
				best, bestA, bestB = d, cand, hull[j]
			}
		}
	}
	// The calipers walk is O(n); double-check tiny hulls exhaustively to be
	// immune to collinear degeneracies.
	if n <= 8 {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if d := hull[a].Dist2(hull[b]); d > best {
					best, bestA, bestB = d, hull[a], hull[b]
				}
			}
		}
	}
	return bestA, bestB, bestA.Dist(bestB)
}

// FarthestPairBrute returns the farthest pair by checking all O(n^2) pairs.
// It is the oracle for differential tests and the "brute force in Hadoop"
// strategy discussed in paper §8.1.
func FarthestPairBrute(pts []Point) (Point, Point, float64) {
	if len(pts) == 0 {
		return Point{}, Point{}, 0
	}
	bestA, bestB := pts[0], pts[0]
	best := 0.0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d > best {
				best, bestA, bestB = d, pts[i], pts[j]
			}
		}
	}
	return bestA, bestB, bestA.Dist(bestB)
}
