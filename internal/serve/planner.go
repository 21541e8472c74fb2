package serve

import (
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// Planner modes for Config.Planner.
const (
	// PlannerAuto routes each query from index statistics and estimated
	// selectivity: selective queries over few partitions run in-process
	// against the memory tier, everything else runs as a MapReduce job.
	PlannerAuto = "auto"
	// PlannerLocal forces the in-memory engine (MapReduce still serves
	// heap files and the operations with no local engine).
	PlannerLocal = "local"
	// PlannerMapReduce forces the MapReduce engine.
	PlannerMapReduce = "mapreduce"
	// PlannerSharded scatters candidate partitions to the workers holding
	// their replicas (rendezvous-first, then any holder, then master-local
	// execution) and gathers the sorted fragments into the same canonical
	// body the local engine builds. Heap files — which have no partitions
	// to scatter — fall through to MapReduce.
	PlannerSharded = "sharded"
)

// ValidPlanner reports whether mode names a planner mode ("" = auto).
func ValidPlanner(mode string) bool {
	switch mode {
	case "", PlannerAuto, PlannerLocal, PlannerMapReduce, PlannerSharded:
		return true
	}
	return false
}

// Planner auto-mode thresholds: a range query runs locally when, after
// cover + bitmap pruning, at most plannerLocalMaxParts partitions remain
// and the estimated records touched (per-partition record count × bitmap
// selectivity) stay under plannerLocalMaxRecords — i.e. when scheduling a
// job would cost more than the scan itself. Already-pinned candidate sets
// waive the record bound: the data is memory-resident either way.
const (
	plannerLocalMaxParts   = 8
	plannerLocalMaxRecords = 8192
)

// execMeta describes how one response body was built, for the X-Engine
// header, the explain report, and the planner counters. stats is the query
// plan's, whichever engine drove it (nil for a join, which plans none);
// rep is set by the MapReduce engine and supplies only the job fields;
// shard is set only by the sharded engine.
type execMeta struct {
	engine string // "local", "mapreduce" or "sharded"
	stats  *ops.LocalStats
	rep    *mapreduce.Report
	shard  *shardStats
}

// planRange decides the engine for a range query under the given planner
// mode (the per-request engine override or Config.Planner). A non-nil
// source means local execution through it; nil means MapReduce.
func (s *Server) planRange(mode string, f *dfs.File, rect geom.Rect) *tierSource {
	src := s.localSource(mode, f)
	if src == nil || mode == PlannerLocal {
		return src
	}
	kept := ops.RangeCandidates(src.idx.Splits, src.sf, rect).Kept
	if len(kept) > plannerLocalMaxParts {
		return nil
	}
	pinned := 0
	estRecords := 0.0
	for _, sp := range kept {
		estRecords += float64(sp.NumRecords()) * src.sf.EstimateFraction(sp.Partition, rect)
		if s.mt.Pinned(f.Name, f.Epoch(), sp.Partition) {
			pinned++
		}
	}
	if estRecords <= plannerLocalMaxRecords || pinned == len(kept) {
		return src
	}
	return nil
}

// localSource returns the file generation's handle for local execution, or
// nil when that is impossible (tier disabled, planner forced to MapReduce,
// file unindexed).
func (s *Server) localSource(mode string, f *dfs.File) *tierSource {
	if s.mt == nil || mode == PlannerMapReduce {
		return nil
	}
	return s.mt.Source(f)
}
