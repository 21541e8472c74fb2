package geom

import (
	"math"
	"slices"
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
	buf := make([]Point, 2*len(pts))
	px, tmp := buf[:len(pts)], buf[len(pts):]
	copy(px, pts)
	slices.SortFunc(px, Point.Compare)
	p, q, _ := closestRec(px, tmp)
	return PointPair{P: p, Q: q, Dist: p.Dist(q)}, true
}

// closestRec computes the closest pair of px, which arrives sorted
// canonically by x and leaves sorted by y: each level merges its halves'
// y-orders, as merge sort does, instead of sorting by y up front. tmp is
// scratch of px's length, first for the merge and then for the strip. It
// returns the pair and the squared distance.
func closestRec(px, tmp []Point) (Point, Point, float64) {
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
		for i := 1; i < n; i++ {
			for j := i; j > 0 && px[j].Y < px[j-1].Y; j-- {
				px[j], px[j-1] = px[j-1], px[j]
			}
		}
		return a, b, best
	}
	// The halves split the canonical order, so points sharing the dividing
	// x coordinate land consistently.
	mid := n / 2
	midX := px[mid].X
	la, lb, ld := closestRec(px[:mid], tmp[:mid])
	ra, rb, rd := closestRec(px[mid:], tmp[mid:])

	a, b, best := la, lb, ld
	if rd < best {
		a, b, best = ra, rb, rd
	}

	// Merge the halves' y-orders, the left first among equal ys.
	l, r := px[:mid], px[mid:]
	for k := range tmp {
		if len(r) == 0 || len(l) > 0 && !(r[0].Y < l[0].Y) {
			tmp[k], l = l[0], l[1:]
		} else {
			tmp[k], r = r[0], r[1:]
		}
	}
	copy(px, tmp)

	// Strip: points within sqrt(best) of the dividing line, in y order.
	limit := math.Sqrt(best)
	strip := tmp[:0]
	for _, p := range px {
		if math.Abs(p.X-midX) < limit {
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
	return PointPair{P: a, Q: b, Dist: a.Dist(b)}, true
}
