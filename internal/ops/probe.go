package ops

import (
	"cmp"
	"math"
	"slices"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
)

// The query jobs ask a block two questions, and both are answered by
// reading its points once, front to back: a map attempt probes a block
// once, so a tree bulk-loaded over it would be probed once and thrown away
// (measured on the master, where blocks persist, a memoised per-block
// R-tree bought no throughput and cost 59 MiB; DESIGN.md § Job kinds). A
// pinned partition is held sorted and probed as SortedPoints, with the
// same tie rule. Either way the answer is defined without reference to
// how it was found, which is what keeps raw job output byte-identical
// across engines.

// blockRangeIDs returns, in ascending order, the ids (b.Record's argument)
// of the block's points inside query, boundary inclusive.
func blockRangeIDs(b *dfs.Block, query geom.Rect) ([]int, error) {
	pts, err := b.Points()
	if err != nil {
		return nil, err
	}
	var ids []int
	for i, p := range pts {
		if query.ContainsPoint(p) {
			ids = append(ids, i)
		}
	}
	return ids, nil
}

// blockNearest returns the block's k nearest records to q plus every
// further one at exactly the k-th distance, in no particular order. Only
// finite coordinates are pinned: a NaN distance has no rank.
func blockNearest(b *dfs.Block, q geom.Point, k int) ([]KNNCandidate, error) {
	pts, err := b.Points()
	if err != nil || k <= 0 {
		return nil, err
	}
	c := newNominees(k, len(pts))
	for i, p := range pts {
		c.offer(p, q, i)
	}
	// Only the survivors' records are ever asked for.
	noms := c.nearestWithTies()
	cands := make([]KNNCandidate, len(noms))
	for i, n := range noms {
		cands[i] = KNNCandidate{Dist: n.dist, Rec: b.Record(n.id)}
	}
	return cands, nil
}

// nominee is one scanned point still in the running for the k nearest.
type nominee struct {
	dist float64
	id   int
}

// nominees is the one tie rule of every probe that scans points: those
// offered at or inside the running k-th distance collect by id, and
// whenever twice the useful number has piled up they are cut back to the k
// nearest plus ties, which tightens bound for the rest.
type nominees struct {
	k, limit int
	bound    float64 // the running k-th distance; +Inf until k are known
	noms     []nominee
}

func newNominees(k, n int) nominees {
	limit := 2 * min(k, n)
	return nominees{k: k, limit: limit, bound: math.Inf(1), noms: make([]nominee, 0, limit+1)}
}

// offer nominates p, the scanned point with this id, for the k nearest to q.
func (c *nominees) offer(p, q geom.Point, id int) {
	if math.Abs(p.Y-q.Y) > c.bound {
		return // the distance is no less: spare the hypotenuse
	}
	// rtree, the test oracle, ranks a point entry by this same expression.
	d := (geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}).MinDistPoint(q)
	if d <= c.bound {
		c.noms = append(c.noms, nominee{dist: d, id: id})
		if len(c.noms) > c.limit {
			c.nearestWithTies()
			c.limit = max(c.limit, 2*len(c.noms)) // a large tie group must not re-sort per point
		}
	}
}

// nearestWithTies cuts the nominees down to the k nearest plus every one
// tied with the k-th, whose distance becomes the bound (it stays +Inf while
// fewer than k are known, so nothing is excluded yet), and returns them, in
// no particular order.
func (c *nominees) nearestWithTies() []nominee {
	if len(c.noms) > c.k {
		slices.SortFunc(c.noms, func(a, b nominee) int { return cmp.Compare(a.dist, b.dist) })
		c.bound = c.noms[c.k-1].dist
		n := c.k
		for n < len(c.noms) && c.noms[n].dist == c.bound {
			n++
		}
		c.noms = c.noms[:n]
	}
	return c.noms
}
