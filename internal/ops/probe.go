package ops

import (
	"math"
	"sort"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
)

// blockProbe answers the query jobs' two per-block questions. It has
// exactly two implementations, chosen by whether the block outlives the
// probe: a local index is used where it persists — the master's blocks
// keep theirs (indexProbe), as the serving tier's pinned partitions do —
// and a one-shot read scans (scanProbe): a worker's block is decoded for
// one map attempt and dropped, so a tree bulk-loaded over it would be
// probed once and thrown away. Both sides define their answer without
// reference to how it was found, which is what keeps raw job output
// byte-identical across engines.
type blockProbe interface {
	// rangeIDs returns, in ascending order, the ids (b.Record's argument)
	// of the block's points inside query, boundary inclusive.
	rangeIDs(b *dfs.Block, query geom.Rect) ([]int, error)
	// nearest returns the block's k nearest records to q plus every further
	// one at exactly the k-th distance, in no particular order. Only
	// finite coordinates are pinned: a NaN distance has no rank.
	nearest(b *dfs.Block, q geom.Point, k int) ([]KNNCandidate, error)
}

// indexProbe probes the block's memoised R-tree.
type indexProbe struct{}

func (indexProbe) rangeIDs(b *dfs.Block, query geom.Rect) ([]int, error) {
	idx, err := b.LocalIndex()
	if err != nil {
		return nil, err
	}
	ids := idx.Search(query, nil)
	sort.Ints(ids) // Search reports in tree order
	return ids, nil
}

func (indexProbe) nearest(b *dfs.Block, q geom.Point, k int) ([]KNNCandidate, error) {
	idx, err := b.LocalIndex()
	if err != nil {
		return nil, err
	}
	nbs := idx.NearestWithTies(q, k)
	out := make([]KNNCandidate, len(nbs))
	for i, nb := range nbs {
		out[i] = KNNCandidate{Dist: nb.Dist, Rec: b.Record(nb.Entry.ID)}
	}
	return out, nil
}

// scanProbe reads the block's points once, front to back.
type scanProbe struct{}

func (scanProbe) rangeIDs(b *dfs.Block, query geom.Rect) ([]int, error) {
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

func (scanProbe) nearest(b *dfs.Block, q geom.Point, k int) ([]KNNCandidate, error) {
	pts, err := b.Points()
	if err != nil || k <= 0 {
		return nil, err
	}
	// Nominees at or inside the running k-th distance collect in noms, by
	// id; whenever twice the useful number has piled up they are cut back
	// to the k nearest plus ties, which tightens the bound for the rest.
	// Only the survivors' records are ever asked for.
	bound := math.Inf(1)
	limit := 2 * min(k, len(pts))
	var noms []nominee
	for i, p := range pts {
		// The index ranks a point entry by this same expression.
		d := (geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}).MinDistPoint(q)
		if d <= bound {
			noms = append(noms, nominee{dist: d, id: i})
			if len(noms) > limit {
				noms, bound = nearestWithTies(noms, k)
				limit = max(limit, 2*len(noms)) // a large tie group must not re-sort per point
			}
		}
	}
	noms, _ = nearestWithTies(noms, k)
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

// nearestWithTies cuts noms down to the k nearest plus every nominee tied
// with the k-th, and returns that k-th distance (+Inf while fewer than k
// are known, so nothing is excluded yet).
func nearestWithTies(noms []nominee, k int) ([]nominee, float64) {
	if len(noms) <= k {
		return noms, math.Inf(1)
	}
	sort.Slice(noms, func(i, j int) bool { return noms[i].dist < noms[j].dist })
	kth := noms[k-1].dist
	n := k
	for n < len(noms) && noms[n].dist == kth {
		n++
	}
	return noms[:n], kth
}
