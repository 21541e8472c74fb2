package ops

import (
	"sync"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
)

// The per-partition step of the query plan: what a driver computes from
// one pinned partition, wherever it is pinned — on the request goroutine
// (local engine), on a worker holding a replica, or on the master at the
// bottom of the sharded engine's fallback ladder.

// RangeFragment is one partition's sorted match stream — merge keys plus
// the points' JSON objects; it is the wire type.
type RangeFragment = mapreduce.ExecRangeReply

// idScratch pools PartitionRangePoints' ID buffers: the IDs die once the
// stream is built.
var idScratch = sync.Pool{New: func() any { return new([]int) }}

// PartitionRangePoints returns the pinned partition's points inside query
// as one sorted stream: what a serving worker ships and what the master
// computes itself at the bottom of the fallback ladder. The objects are
// copied out of the pin-time fragment arena; a partition without one
// formats its matches into the same shape, failing like encoding/json on a
// coordinate JSON cannot carry.
func PartitionRangePoints(part *LocalPartition, query geom.Rect) (out RangeFragment, err error) {
	out.Records = int64(len(part.Recs))
	scratch := idScratch.Get().(*[]int)
	ids := part.Tree.Search(query, (*scratch)[:0])
	if len(ids) > 0 {
		size := 48 * len(ids)
		if part.Frag != nil {
			size = len(ids) - 1 // commas
			for _, id := range ids {
				size += int(part.FragOff[id+1] - part.FragOff[id])
			}
		}
		out.Keys, out.Frag = make([]float64, 0, 2*len(ids)), make([]byte, 0, size)
	}
	for i, id := range ids {
		p := part.Pts[id]
		out.Keys = append(out.Keys, p.X, p.Y)
		if i > 0 {
			out.Frag = append(out.Frag, ',')
		}
		if part.Frag != nil {
			out.Frag = append(out.Frag, part.Frag[part.FragOff[id]:part.FragOff[id+1]]...)
		} else if out.Frag, err = AppendPointJSON(out.Frag, p); err != nil {
			break
		}
	}
	*scratch = ids
	idScratch.Put(scratch)
	return out, err
}

// PartitionKNNCandidates returns the partition's k nearest candidates for
// q: tie-complete from the expanding slab (NearestWithTies), then
// canonically sorted and truncated to k.
func PartitionKNNCandidates(part *LocalPartition, q geom.Point, k int) []KNNCandidate {
	noms := part.Tree.NearestWithTies(q, k)
	out := make([]KNNCandidate, len(noms))
	for i, n := range noms {
		out[i] = KNNCandidate{Dist: n.dist, Rec: part.Recs[n.id]}
	}
	return sortCandidates(out, k)
}
