package ops

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// Local executors: the serving layer's in-memory fast path for range and
// kNN queries over indexed files. They are drivers of the query plan
// (plan.go), so a query answered locally is byte-identical to one answered
// by a job and the planner is free to route per request. What differs is
// the execution substrate: records come from pinned memory-resident
// partitions (LocalPartition) supplied by a LocalSource instead of from
// scheduled map tasks, searched in split order on the calling goroutine.

// LocalPartition is one partition's records decoded and sorted in memory:
// the unit the serving layer's memory tier pins, evicts, and invalidates.
type LocalPartition struct {
	// Key is the partition key (Cell.Key()).
	Key string
	// Pts holds the partition's decoded points in canonical (X, then Y)
	// order; Recs the corresponding record texts, index-aligned with Pts.
	Pts  []geom.Point
	Recs []string
	// Tree is the local index: Pts itself, probed as the sorted column it
	// is; ids are indices into Pts/Recs. (The name is the one the frozen
	// benchmark harness compiles against.)
	Tree SortedPoints
	// Frag holds every point's pre-encoded JSON object ({"x":..,"y":..},
	// exactly as encoding/json renders it); point i's fragment is
	// Frag[FragOff[i]:FragOff[i+1]]. Because Pts is sorted canonically,
	// a range response can be assembled by merging partitions and copying
	// fragments instead of re-formatting floats per query — float
	// formatting dominated the serve CPU profile. Nil when any coordinate
	// has no JSON encoding (NaN/Inf); consumers must then fall back.
	Frag    []byte
	FragOff []int32
	// Bytes is the pinned footprint the memory tier budgets by: what the
	// slices above hold.
	Bytes int64
}

// PinSplit decodes a split's blocks into a memory-resident partition:
// points and records jointly sorted into canonical (X, then Y) order — the
// order is the local index — and per-point response fragments.
func PinSplit(sp *mapreduce.Split) (*LocalPartition, error) {
	type pair struct {
		pt  geom.Point
		rec string
	}
	var pairs []pair
	for _, b := range sp.Blocks {
		pts, err := b.Points()
		if err != nil {
			return nil, err
		}
		recs := b.Records()
		if len(pts) != len(recs) {
			return nil, fmt.Errorf("ops: partition %q: %d points vs %d records", sp.Partition, len(pts), len(recs))
		}
		pairs = slices.Grow(pairs, len(pts))
		for i, p := range pts {
			pairs = append(pairs, pair{p, recs[i]})
		}
	}
	// Canonical order, and a total one: cmp.Compare puts a NaN first where
	// < would leave it unordered and break the probes' binary search. The
	// (pt, rec) pairing is preserved, so kNN's (dist, record) candidate
	// comparator is unaffected; equal points may land in either order,
	// which no consumer can observe.
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.pt.X, b.pt.X); c != 0 {
			return c
		}
		return cmp.Compare(a.pt.Y, b.pt.Y)
	})
	pts, recs := make([]geom.Point, len(pairs)), make([]string, len(pairs))
	var bytes int64
	for i, p := range pairs {
		pts[i], recs[i] = p.pt, p.rec
		bytes += int64(len(p.rec))
	}
	frag, off := buildFragments(pts)
	// Points (2 floats), record headers, and the fragment arena.
	bytes += int64(len(pts))*(16+16) + int64(cap(frag)) + int64(4*len(off))
	return &LocalPartition{
		Key:     sp.Partition,
		Pts:     pts,
		Recs:    recs,
		Tree:    pts,
		Frag:    frag,
		FragOff: off,
		Bytes:   bytes,
	}, nil
}

// buildFragments pre-encodes each point's JSON object. A point that
// encoding/json would reject (NaN/Inf) disables fragments for the whole
// partition ((nil, nil)); range encoding then falls back to the
// marshal-equivalent slow path.
func buildFragments(pts []geom.Point) ([]byte, []int32) {
	frag := make([]byte, 0, 24*len(pts))
	off := make([]int32, len(pts)+1)
	var err error
	for i, p := range pts {
		if frag, err = AppendPointJSON(frag, p); err != nil {
			return nil, nil
		}
		off[i+1] = int32(len(frag))
	}
	return frag, off
}

// AppendPointJSON appends p's response object, {"x":..,"y":..}, exactly as
// encoding/json renders it (or fails on a NaN/Inf coordinate, as it does).
func AppendPointJSON(b []byte, p geom.Point) ([]byte, error) {
	var err error
	b = append(b, `{"x":`...)
	if b, err = geomio.AppendJSONFloat(b, p.X); err != nil {
		return nil, err
	}
	b = append(b, `,"y":`...)
	if b, err = geomio.AppendJSONFloat(b, p.Y); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// LocalSource supplies the executors with pinned partitions and the
// per-file spatial bitmap filter. The serving layer's memory tier is the
// production implementation.
type LocalSource interface {
	// Pin returns the memory-resident form of a split's partition,
	// loading it if necessary.
	Pin(sp *mapreduce.Split) (*LocalPartition, error)
	// Filter returns the file's partition bitmap filter, or nil when none
	// is maintained (executors then prune on Cover geometry alone).
	Filter() *sindex.SFilter
}

// localIndexed opens the file for the local executors, which rely on
// per-partition splits and partition keys and so require a global index.
func localIndexed(sys *core.System, file string) (*Indexed, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, err
	}
	if f.Index == nil {
		return nil, fmt.Errorf("ops: local execution needs an indexed file, %q is a heap", file)
	}
	return NewIndexed(f), nil
}

// LocalMatch is one partition's contribution to a range query: the pinned
// partition plus the matched entry IDs, ascending as the slab scan finds
// them and allocated once, to fit. Because pinned points are canonically
// sorted, ascending IDs mean each partition's matches stream out already
// in (X, then Y) order — a response is a k-way merge of these streams, no
// sort anywhere.
type LocalMatch struct {
	Part *LocalPartition
	IDs  []int
}

// LocalRangeMatches answers a range query from pinned partitions,
// byte-equivalent to RangeQueryPoints: the same filter step plus bitmap
// pruning, and exactly one owner per point record (the loader assigns each
// point to a single cell), so no dedup is needed. Partitions with no
// matches are omitted.
func LocalRangeMatches(sys *core.System, file string, src LocalSource, query geom.Rect) ([]LocalMatch, *LocalStats, error) {
	f, err := localIndexed(sys, file)
	if err != nil {
		return nil, nil, err
	}
	return LocalRangeMatchesCtx(context.Background(), sys, f, src, query)
}

// LocalRangeMatchesCtx is LocalRangeMatches over an already opened file and
// under a context: a cancelled request pins nothing.
func LocalRangeMatchesCtx(ctx context.Context, sys *core.System, f *Indexed, src LocalSource, query geom.Rect) ([]LocalMatch, *LocalStats, error) {
	plan := NewPlan(sys, f, src.Filter())
	kept, err := plan.Range(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	var out []LocalMatch
	for _, sp := range kept {
		part, err := src.Pin(sp)
		if err != nil {
			return nil, nil, err
		}
		ids := part.Tree.Search(query, nil)
		plan.Searched(sp, len(part.Recs), len(ids))
		if len(ids) > 0 {
			out = append(out, LocalMatch{Part: part, IDs: ids})
		}
	}
	return out, &plan.Stats, nil
}

// LocalKNNPoints answers a kNN query from pinned partitions, picking the
// same k points in the same order as KNNCtx.
func LocalKNNPoints(sys *core.System, file string, src LocalSource, q geom.Point, k int) ([]geom.Point, *LocalStats, error) {
	f, err := localIndexed(sys, file)
	if err != nil {
		return nil, nil, err
	}
	return LocalKNNPointsCtx(context.Background(), sys, f, src, q, k)
}

// LocalKNNPointsCtx is LocalKNNPoints over an already opened file and under
// a context, checked before each round.
func LocalKNNPointsCtx(ctx context.Context, sys *core.System, f *Indexed, src LocalSource, q geom.Point, k int) ([]geom.Point, *LocalStats, error) {
	plan := NewPlan(sys, f, src.Filter())
	pts, err := plan.KNN(ctx, q, k, func(_ context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
		var cands []KNNCandidate
		for _, sp := range kept {
			part, err := src.Pin(sp)
			if err != nil {
				return nil, err
			}
			frag := PartitionKNNCandidates(part, q, k)
			plan.Searched(sp, len(part.Recs), len(frag))
			cands = append(cands, frag...)
		}
		return cands, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, &plan.Stats, nil
}
