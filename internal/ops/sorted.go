package ops

import (
	"slices"
	"sort"

	"spatialhadoop/internal/geom"
)

// SortedPoints is a pinned partition's local index: a view — no copy, no
// second structure — over its points in canonical (X, then Y) order, whose
// ids are indices into that order. A probe reads the slab of points whose
// X can matter and nothing else, so its worst case is the partition, which
// the block size bounds. Points with a NaN X sort first (PinSplit), where
// no comparison below is true of them: they match no range and rank in no
// kNN.
type SortedPoints []geom.Point

// Search appends to dst, ascending, the ids of the points inside query,
// boundary inclusive (Rect.ContainsPoint): two binary searches cut the slab
// MinX <= X <= MaxX, and a scan of it keeps the points whose Y is inside.
// The slab bounds the matches, so dst is sized once: a caller's buffer is
// grown to hold the slab and stays as large for its next use; a caller
// with none gets exactly what the matches need, from a counting pass.
func (s SortedPoints) Search(query geom.Rect, dst []int) []int {
	lo := sort.Search(len(s), func(i int) bool { return s[i].X >= query.MinX })
	slab := s[lo:]
	slab = slab[:sort.Search(len(slab), func(i int) bool { return !(slab[i].X <= query.MaxX) })]
	n := len(dst)
	end := n + len(slab)
	if cap(dst) == 0 {
		end = 0
		for _, p := range slab {
			end += within(p.Y, query.MinY, query.MaxY)
		}
		dst = make([]int, end)
	} else {
		dst = slices.Grow(dst, len(slab))[:end]
	}
	// The store is unconditional and the test an addition: with the slab
	// in X order its Ys are in none, and a branch on them mispredicts.
	for i := 0; i < len(slab) && n < end; i++ {
		dst[n] = lo + i
		n += within(slab[i].Y, query.MinY, query.MaxY)
	}
	return dst[:n]
}

// within is 1 when lo <= y <= hi and 0 otherwise, a NaN included.
func within(y, lo, hi float64) int {
	a, b := 0, 0
	if y >= lo {
		a = 1
	}
	if y <= hi {
		b = 1
	}
	return a & b
}

// NearestWithTies returns the k nearest points to q plus every further one
// at exactly the k-th distance, in no particular order: the slab around q.X
// widens one point at a time on whichever side is nearer in X, and ends
// when that gap alone exceeds the running k-th distance — strictly, so a
// tie at the k-th distance is still collected.
func (s SortedPoints) NearestWithTies(q geom.Point, k int) []nominee {
	if k <= 0 {
		return nil
	}
	r := sort.Search(len(s), func(i int) bool { return s[i].X >= q.X })
	l := r - 1
	c := newNominees(k, len(s))
	for l >= 0 || r < len(s) {
		var (
			i   int
			gap float64
		)
		if r == len(s) || l >= 0 && q.X-s[l].X <= s[r].X-q.X {
			i, gap = l, q.X-s[l].X
			l--
		} else {
			i, gap = r, s[r].X-q.X
			r++
		}
		if !(gap <= c.bound) { // or the NaN prefix is all that is left
			break
		}
		c.offer(s[i], q, i)
	}
	return c.nearestWithTies()
}
