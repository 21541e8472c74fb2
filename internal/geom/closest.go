package geom

import (
	"cmp"
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
// It sorts one copy canonically by x and never reorders it: leaves of up
// to 64 points are scanned in x-order, and each level sorts only its strip
// by y, so the worst case (every point on one x, every strip the whole
// run) is O(n log² n). On a 7 000-point partition already in canonical
// order it runs in about a third of the time of a merge of y-orders per
// level. The one 2n buffer is its only allocation, and the input slice is
// not modified.
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

// closestLeaf is the run length closestRec scans pair by pair.
const closestLeaf = 64

// closestRec computes the closest pair of px, which is sorted canonically
// by x and is not reordered. Each level's strip is the contiguous run of
// points within sqrt(best) of the dividing x; it is copied into tmp (of
// px's length) and sorted by y there. It returns the pair and the squared
// distance. Every cut-off compares squares, which bound Dist2 from below.
func closestRec(px, tmp []Point) (Point, Point, float64) {
	n := len(px)
	best := math.Inf(1)
	var a, b Point
	if n <= closestLeaf {
		for i := range px {
			for j := i + 1; j < n; j++ {
				if dx := px[j].X - px[i].X; dx*dx >= best {
					break
				}
				if d := px[i].Dist2(px[j]); d < best {
					best, a, b = d, px[i], px[j]
				}
			}
		}
		return a, b, best
	}
	// The halves split the canonical order, so points sharing the dividing
	// x coordinate land consistently.
	mid := n / 2
	midX := px[mid].X
	a, b, best = closestRec(px[:mid], tmp)
	if ra, rb, rd := closestRec(px[mid:], tmp); rd < best {
		a, b, best = ra, rb, rd
	}

	lo, hi := mid, mid
	for ; lo > 0; lo-- {
		if dx := midX - px[lo-1].X; dx*dx >= best {
			break
		}
	}
	for ; hi < n; hi++ {
		if dx := px[hi].X - midX; dx*dx >= best {
			break
		}
	}
	strip := tmp[:hi-lo]
	copy(strip, px[lo:hi])
	slices.SortFunc(strip, func(p, q Point) int { return cmp.Compare(p.Y, q.Y) })
	for i := range strip {
		for j := i + 1; j < len(strip); j++ {
			if dy := strip[j].Y - strip[i].Y; dy*dy >= best {
				break
			}
			if d := strip[i].Dist2(strip[j]); d < best {
				best, a, b = d, strip[i], strip[j]
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
