package ops

import (
	"slices"

	"spatialhadoop/internal/geom"
)

// The per-partition step of the query plan: what a driver computes from
// one pinned partition, wherever it is pinned — on the request goroutine
// (local engine), on a worker holding a replica, or on the master at the
// bottom of the sharded engine's fallback ladder.

// partitionRangeIDs returns the entry IDs of the partition's points inside
// query, ascending. Pinned points are canonically sorted, so ascending IDs
// stream out in (X, then Y) order.
func partitionRangeIDs(part *LocalPartition, query geom.Rect) []int {
	ids := part.Tree.Search(query, nil)
	slices.Sort(ids)
	return ids
}

// PartitionRangePoints returns the pinned partition's points inside query
// in canonical (X, then Y) order.
func PartitionRangePoints(part *LocalPartition, query geom.Rect) []geom.Point {
	ids := partitionRangeIDs(part, query)
	out := make([]geom.Point, len(ids))
	for i, id := range ids {
		out[i] = part.Pts[id]
	}
	return out
}

// PartitionKNNCandidates returns the partition's k nearest candidates for
// q: tie-complete from the R-tree (NearestWithTies), then canonically
// sorted and truncated to k.
func PartitionKNNCandidates(part *LocalPartition, q geom.Point, k int) []KNNCandidate {
	nbs := part.Tree.NearestWithTies(q, k)
	out := make([]KNNCandidate, len(nbs))
	for i, nb := range nbs {
		out[i] = KNNCandidate{Dist: nb.Dist, Rec: part.Recs[nb.Entry.ID]}
	}
	return sortCandidates(out, k)
}
