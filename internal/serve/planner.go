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
	// selectivity: selective queries over few partitions run on the local
	// engine, everything else runs as a MapReduce job.
	PlannerAuto = "auto"
	// PlannerLocal forces the local engine: the serving executor
	// (sharded.go) with the master as the only holder, answering every
	// kept partition from its memory tier in one in-process call.
	// MapReduce still serves heap files, a server without a memory tier,
	// and the operations with no executor.
	PlannerLocal = "local"
	// PlannerMapReduce forces the MapReduce engine.
	PlannerMapReduce = "mapreduce"
	// PlannerSharded runs the same executor with the workers as holders:
	// each kept partition goes to the worker holding its replica
	// (rendezvous-first, then any holder, then the master), one call per
	// holder, and the gather merges the sorted fragments into the same
	// canonical body. Heap files — which have no partitions to scatter —
	// fall through to MapReduce.
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
// cover pruning, at most plannerLocalMaxParts partitions remain and the
// estimated records touched (estimateRecords) stay under
// plannerLocalMaxRecords — i.e. when scheduling a job would cost more than
// the scan itself. Already-pinned candidate sets waive the record bound:
// the data is memory-resident either way.
const (
	plannerLocalMaxParts   = 8
	plannerLocalMaxRecords = 8192
)

// execMeta describes how one response body was built, for the X-Engine
// header, the explain report, and the planner counters. stats is the query
// plan's, whichever engine drove it, and always set; rep is set by the
// MapReduce engine and supplies only the job fields; shard is set only by
// the sharded engine.
type execMeta struct {
	engine string // "local", "mapreduce" or "sharded"
	stats  *ops.LocalStats
	rep    *mapreduce.Report
	shard  *shardStats
}

// planQuery binds a query on the serving executor under the planner mode
// (the per-request engine override or Config.Planner), or returns nil for
// MapReduce: the sharded engine for any indexed file, and otherwise the
// local engine — auto's first choice — for an indexed file while the
// memory tier is on. A heap file has no partitions to scatter. The kNN
// protocol is selective by construction (one partition, then only the
// correctness circle), so a kNN query takes this answer as it is.
func (s *Server) planQuery(mode string, f *dfs.File) *shardQuery {
	engine := PlannerLocal
	if mode == PlannerSharded {
		engine = PlannerSharded
	} else if mode == PlannerMapReduce || s.mt == nil {
		return nil
	}
	gen := s.mt.Source(f) // per request when the tier is off
	if gen == nil {
		return nil
	}
	sq := &shardQuery{s: s, engine: engine, gen: gen, plan: ops.NewPlan(s.sys, gen.idx)}
	if engine == PlannerSharded {
		// The cluster's master runtime (nil when serving in process), with
		// the heartbeat epoch feed kept installed so serving workers drop
		// pins that DFS rewrites obsoleted.
		if sq.m = s.sys.Cluster().Master(); sq.m != nil {
			sq.m.SetEpochSource(s.sys.FS().Epochs)
		}
	}
	return sq
}

// planRange decides the engine for a range query as planQuery does,
// except that auto keeps the local engine only for a selective query.
func (s *Server) planRange(mode string, f *dfs.File, rect geom.Rect) *shardQuery {
	sq := s.planQuery(mode, f)
	if sq == nil || sq.engine == PlannerSharded || mode == PlannerLocal {
		return sq
	}
	kept := ops.RangeCandidates(sq.gen.idx.Splits, rect)
	if len(kept) > plannerLocalMaxParts {
		return nil
	}
	pinned := 0
	estRecords := 0.0
	for _, sp := range kept {
		estRecords += estimateRecords(sp, rect)
		if s.mt.Pinned(f.Name, f.Epoch(), sp.Partition) {
			pinned++
		}
	}
	if estRecords <= plannerLocalMaxRecords || pinned == len(kept) {
		return sq
	}
	return nil
}

// estimateRecords is how many of sp's records a range query over rect
// touches, assuming they spread evenly over the split's content MBR: its
// record count times the share of the content MBR that rect covers. It is
// 0 when rect misses the content MBR, which holds every record, and the
// whole partition when the content MBR is unknown or has no area.
func estimateRecords(sp *mapreduce.Split, rect geom.Rect) float64 {
	c := sp.ContentMBR
	if !c.IsEmpty() && !c.Intersects(rect) {
		return 0
	}
	n := float64(sp.NumRecords())
	if a := c.Area(); a > 0 {
		return n * c.Intersect(rect).Area() / a
	}
	return n
}
