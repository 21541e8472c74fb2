package geom

import (
	"math"
	"slices"
	"sort"
)

// PointPair is a pair of points together with their distance.
type PointPair struct {
	P, Q Point
	Dist float64
}

// ClosestPair returns the pair of points at minimum Euclidean distance
// using the classical divide-and-conquer algorithm (paper §9). For fewer
// than two points it returns ok=false.
//
// The input slice is not modified.
func ClosestPair(pts []Point) (PointPair, bool) {
	if len(pts) < 2 {
		return PointPair{}, false
	}
	px := make([]Point, len(pts))
	copy(px, pts)
	slices.SortFunc(px, Point.Compare)
	py := make([]Point, len(px))
	copy(py, px)
	sort.Slice(py, func(i, j int) bool { return py[i].Y < py[j].Y })
	p, q, d2 := closestRec(px, py)
	return PointPair{P: p, Q: q, Dist: math.Sqrt(d2)}, true
}

// closestRec computes the closest pair of px (sorted canonically by x) using
// py (the same multiset sorted by y). It returns the pair and the squared
// distance.
func closestRec(px, py []Point) (Point, Point, float64) {
	n := len(px)
	if n <= 3 {
		best := math.Inf(1)
		var a, b Point
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := px[i].Dist2(px[j]); d < best {
					best, a, b = d, px[i], px[j]
				}
			}
		}
		return a, b, best
	}
	mid := n / 2
	midPt := px[mid]

	// Partition py into the two halves, preserving y order. Points are
	// routed by the same canonical order used to split px so that points
	// sharing the pivot's x coordinate land consistently.
	ly := make([]Point, 0, mid)
	ry := make([]Point, 0, n-mid)
	for _, p := range py {
		if p.Less(midPt) {
			ly = append(ly, p)
		} else {
			ry = append(ry, p)
		}
	}

	la, lb, ld := closestRec(px[:mid], ly)
	ra, rb, rd := closestRec(px[mid:], ry)

	a, b, best := la, lb, ld
	if rd < best {
		a, b, best = ra, rb, rd
	}

	// Strip: points within sqrt(best) of the dividing line, in y order.
	limit := math.Sqrt(best)
	strip := make([]Point, 0, 32)
	for _, p := range py {
		if math.Abs(p.X-midPt.X) < limit {
			strip = append(strip, p)
		}
	}
	for i := 0; i < len(strip); i++ {
		for j := i + 1; j < len(strip) && strip[j].Y-strip[i].Y < limit; j++ {
			if d := strip[i].Dist2(strip[j]); d < best {
				best, a, b = d, strip[i], strip[j]
				limit = math.Sqrt(best)
			}
		}
	}
	return a, b, best
}

// ClosestPairBrute returns the closest pair by checking all O(n^2) pairs.
// It is the oracle for differential tests.
func ClosestPairBrute(pts []Point) (PointPair, bool) {
	if len(pts) < 2 {
		return PointPair{}, false
	}
	best := math.Inf(1)
	var a, b Point
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d < best {
				best, a, b = d, pts[i], pts[j]
			}
		}
	}
	return PointPair{P: a, Q: b, Dist: math.Sqrt(best)}, true
}
