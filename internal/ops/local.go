package ops

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// Pinned partitions: the memory-resident form a serving executor — a
// worker, or the master answering the partitions no worker holds — runs the
// query plan's per-partition step (shard.go) against. Records come from
// partitions pinned by the caller's tier instead of from scheduled map
// tasks, so a query answered from pins is byte-identical to one answered by
// a job and the planner is free to route per request.

// LocalPartition is one partition's points decoded and sorted in memory:
// the unit the serving layer's memory tier pins, evicts, and invalidates.
type LocalPartition struct {
	// Key is the partition key (Cell.Key()).
	Key string
	// Pts holds the partition's decoded points in canonical (X, then Y)
	// order.
	Pts []geom.Point
	// Tree is the local index: Pts itself, probed as the sorted column it
	// is; ids are indices into Pts. (The name is the one the frozen
	// benchmark harness compiles against.)
	Tree SortedPoints
	// Bytes is the pinned footprint the memory tier budgets by: the points
	// plus the response objects' slots and their ready bits, reserved at
	// pin time although the slots are allocated on first use, so the
	// footprint does not change while the partition is pinned.
	Bytes int64

	// A point's response object ({"x":..,"y":..}, exactly as encoding/json
	// renders it) is written the first time a range stream carries the
	// point, into its slot, and copied by every later one (spell, shard.go):
	// a query pays for the points it returns, not for the partition it
	// pins, and a partition that only answers kNN never formats a float.
	// slots holds slotSize bytes per point, allocated on first use under
	// mu; ready holds one bit per point, set with Store under mu once the
	// point's slot is written, and read with Load by every stream.
	mu    sync.Mutex
	slots []byte
	ready []atomic.Uint64
}

// slotSize is a point's slot: its object, then the object's length in the
// last byte. A length of 0 marks a point whose object does not fit — two
// negative 17-digit coordinates or an exponent form can take more — or has
// no JSON encoding (NaN/Inf): such a point is formatted on every use.
const slotSize = 48

// PinSplit decodes a split's blocks into a memory-resident partition: its
// points in canonical order (sortedPoints) — the order is the local index —
// and a ready bitmap for the response objects its range streams write.
// Every block is verified first, as a map attempt verifies its input: a
// corrupt block fails the pin with the dfs checksum error.
func PinSplit(sp *mapreduce.Split) (*LocalPartition, error) {
	for _, b := range sp.Blocks {
		if err := b.VerifyCached(); err != nil {
			return nil, err
		}
	}
	pts, err := sortedPoints(sp.Blocks)
	if err != nil {
		return nil, err
	}
	words := (len(pts) + 63) / 64
	return &LocalPartition{
		Key:   sp.Partition,
		Pts:   pts,
		Tree:  pts,
		Bytes: int64(len(pts))*(16+slotSize) + 8*int64(words),
		ready: make([]atomic.Uint64, words),
	}, nil
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

// LocalSource supplies the local wrappers below with pinned partitions.
type LocalSource interface {
	// Pin returns the memory-resident form of a split's partition,
	// loading it if necessary.
	Pin(sp *mapreduce.Split) (*LocalPartition, error)
}

// LocalRangeMatches and LocalKNNPoints run the plan's filter and the
// per-partition search over every kept partition pinned through src, on
// the calling goroutine, opening the file per call. They serve the
// benchmark harness's micro-levels and this package's tests; the serving
// layer runs the plan through its scatter (RangeStream, KNNSets).

// localIndexed opens the file for the local wrappers, which rely on
// per-partition splits and partition keys and so require a global index.
func localIndexed(sys *core.System, file string) (*Indexed, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, err
	}
	if f.Index == nil {
		return nil, fmt.Errorf("ops: local execution needs an indexed file, %q is a heap", file)
	}
	return NewIndexed(f.File), nil
}

// LocalMatch is one partition's contribution to a range query: the pinned
// partition plus the matched entry IDs, ascending as the slab scan finds
// them. Because pinned points are canonically sorted, ascending IDs mean
// each partition's matches stream out already in (X, then Y) order — a
// stream is a k-way merge of these, no sort anywhere (RangeStream).
type LocalMatch struct {
	Part *LocalPartition
	IDs  []int
}

// LocalRangeMatches answers a range query from pinned partitions: the
// matches of each kept partition, its IDs allocated once, to fit — the
// points RangeQueryPoints finds, as exactly one owner per point record
// holds them (the loader assigns each point to a single cell). Partitions
// with no matches are omitted.
func LocalRangeMatches(sys *core.System, file string, src LocalSource, query geom.Rect) ([]LocalMatch, *LocalStats, error) {
	f, err := localIndexed(sys, file)
	if err != nil {
		return nil, nil, err
	}
	plan := NewPlan(sys, f)
	kept, _ := plan.Range(context.Background(), query) // fails only on a context's end
	var out []LocalMatch
	for _, sp := range kept {
		part, err := src.Pin(sp)
		if err != nil {
			return nil, nil, err
		}
		ids := part.Tree.Search(query, nil)
		plan.Searched(sp, len(part.Pts), len(ids))
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
	plan := NewPlan(sys, f)
	pts, err := plan.KNN(context.Background(), q, k, func(_ context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
		var cands []KNNCandidate
		for _, sp := range kept {
			part, err := src.Pin(sp)
			if err != nil {
				return nil, err
			}
			frag := PartitionKNNCandidates(part, q, k)
			plan.Searched(sp, len(part.Pts), len(frag))
			cands = append(cands, frag...)
		}
		return cands, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, &plan.Stats, nil
}
