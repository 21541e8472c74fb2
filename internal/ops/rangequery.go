// Package ops implements the operations layer of SpatialHadoop (the
// SIGMOD'14 system paper): range queries, k-nearest-neighbour queries and
// distributed spatial join. Each operation follows the same shape as the
// computational geometry suite: a filter step prunes partitions using the
// global index, and map tasks process the survivors.
package ops

import (
	"context"
	"strconv"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// Counter names reported by the operations; like every TaskContext
// counter they are buffered per task and merged once at task end.
const (
	// CounterRangeBlocksScanned counts blocks a range map task scanned.
	CounterRangeBlocksScanned = "ops.range.blocks.scanned"
	// CounterRangeMatches counts records matching the query predicate.
	CounterRangeMatches = "ops.range.matches"
	// CounterDedupDropped counts replicated matches suppressed by the
	// reference-point rule (disjoint partitioning only).
	CounterDedupDropped = "ops.dedup.dropped"
	// CounterJoinCandidates counts MBR-intersecting pairs the plane sweep
	// reported before deduplication.
	CounterJoinCandidates = "ops.join.candidates"
)

// RangeQueryPoints returns all points of the (indexed or heap) file that
// lie inside query. With an indexed file, the filter step prunes every
// partition whose cover (the bound of its records) misses the query, and
// map tasks scan the survivors; with a heap file every block is scanned.
func RangeQueryPoints(sys *core.System, file string, query geom.Rect) ([]geom.Point, *mapreduce.Report, error) {
	return RangeQueryPointsTo(sys, file, query, file+".range.out")
}

// RangeQueryPointsTo is RangeQueryPoints writing its result to the given
// output file. Concurrent queries over the same input must use distinct
// output names (the serving layer allocates one per request); the default
// shared name is only safe for one query at a time.
func RangeQueryPointsTo(sys *core.System, file string, query geom.Rect, out string) ([]geom.Point, *mapreduce.Report, error) {
	plan, err := planFile(sys, file)
	if err != nil {
		return nil, nil, err
	}
	return RangeQueryPointsCtx(context.Background(), sys, plan, query, out)
}

// RangeQueryPointsCtx is RangeQueryPointsTo driven by a bound plan and
// under a context: the plan's filter step picks the partitions, the job
// runs through RunCtx (admission, cancellation, request-trace spans), and
// every partition it searched is reported to the plan.
func RangeQueryPointsCtx(ctx context.Context, sys *core.System, plan *Plan, query geom.Rect, out string) ([]geom.Point, *mapreduce.Report, error) {
	kept, err := plan.Range(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	rep, err := plan.runJob(ctx, sys, &mapreduce.Job{
		Name:   "range-points",
		Kind:   "range-points",
		Conf:   map[string]string{confRangeQuery: geomio.EncodeRect(query)},
		Output: out,
	}, kept)
	if err != nil {
		return nil, nil, err
	}
	plan.jobSearched(kept, rep)
	pts, err := sys.ReadPointsCtx(ctx, out)
	if err != nil {
		return nil, nil, err
	}
	return pts, rep, nil
}

// RangeQueryRegions returns all regions whose MBR intersects query,
// planned as RangeQueryPointsCtx is. Replicated records (disjoint
// partitioning) are deduplicated with the reference-point rule: a region
// is reported only by the partition that contains the top-left corner of
// the intersection of its MBR with the query, so each match is produced
// exactly once.
func RangeQueryRegions(sys *core.System, file string, query geom.Rect) ([]geom.Region, *mapreduce.Report, error) {
	plan, err := planFile(sys, file)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	kept, err := plan.Range(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	conf := map[string]string{confRangeQuery: geomio.EncodeRect(query)}
	if plan.f.Disjoint {
		conf[confRangeSpace] = geomio.EncodeRect(plan.f.Space)
	}
	out := file + ".range.out"
	rep, err := plan.runJob(ctx, sys, &mapreduce.Job{
		Name:   "range-regions",
		Kind:   "range-regions",
		Conf:   conf,
		Output: out,
	}, kept)
	if err != nil {
		return nil, nil, err
	}
	plan.jobSearched(kept, rep)
	regs, err := sys.ReadRegions(out)
	if err != nil {
		return nil, nil, err
	}
	return regs, rep, nil
}

// rangeRegionsMap is the map body of the range-regions job; with a
// disjoint index a replicated region is reported by the one partition
// that owns the reference point, space being the index's.
func rangeRegionsMap(query geom.Rect, disjoint bool, space geom.Rect) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		for bi, blk := range split.Blocks {
			rects, err := blk.Bounds()
			if err != nil {
				return err
			}
			var ids []int
			for i, b := range rects {
				if !b.Intersects(query) {
					continue
				}
				if disjoint {
					ref := geom.Point{X: b.Intersect(query).MinX, Y: b.Intersect(query).MinY}
					if !ownsRef(split.MBR, space, ref) {
						ctx.Inc(CounterDedupDropped, 1)
						continue
					}
				}
				ctx.Inc(CounterRangeMatches, 1)
				ids = append(ids, i)
			}
			ctx.WriteSelected(bi, ids)
		}
		return nil
	}
}

// ownsRef reports whether cell owns the reference point under the
// half-open tiling rule: a cell owns its min edges, and the half-open
// interval is closed only where the cell's max edge coincides with the
// global space boundary. An *interior* shared max edge belongs exclusively
// to the neighbouring cell — closing it on both sides would let two cells
// of a disjoint tiling own the same reference point and double-report the
// record (found by the property soak: a region whose query overlap has its
// min corner exactly on a shared quadtree cell edge was reported by both
// cells, one via half-open containment and one via a max-edge special
// case).
func ownsRef(cell, space geom.Rect, p geom.Point) bool {
	xOK := p.X >= cell.MinX && (p.X < cell.MaxX || cell.MaxX >= space.MaxX)
	yOK := p.Y >= cell.MinY && (p.Y < cell.MaxY || cell.MaxY >= space.MaxY)
	return xOK && yOK
}

// KNN returns the k nearest points to q in the file, with the two-round
// protocol of SpatialHadoop (planKNN), one MapReduce job per round. The
// returned report is from the final round.
func KNN(sys *core.System, file string, q geom.Point, k int) ([]geom.Point, *mapreduce.Report, error) {
	return KNNTo(sys, file, q, k, file+".knn")
}

// KNNTo is KNN writing its round outputs to outPrefix+".r1" and
// outPrefix+".r2", point columns holding each kept block's tie-complete
// candidates (not the global k: the plan merges them on the master).
// Concurrent kNN queries over the same file must use distinct prefixes.
func KNNTo(sys *core.System, file string, q geom.Point, k int, outPrefix string) ([]geom.Point, *mapreduce.Report, error) {
	plan, err := planFile(sys, file)
	if err != nil {
		return nil, nil, err
	}
	return KNNCtx(context.Background(), sys, plan, q, k, outPrefix)
}

// KNNCtx is KNNTo driven by a bound plan and under a context: each round
// the plan keeps runs as one job through RunCtx (admission, cancellation,
// request-trace spans), and every partition it searched is reported to
// the plan.
func KNNCtx(ctx context.Context, sys *core.System, plan *Plan, q geom.Point, k int, outPrefix string) ([]geom.Point, *mapreduce.Report, error) {
	var rep *mapreduce.Report
	pts, err := plan.KNN(ctx, q, k, func(ctx context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
		out := outPrefix + ".r" + strconv.Itoa(plan.Stats.Rounds)
		var err error
		rep, err = plan.runJob(ctx, sys, &mapreduce.Job{
			Name: "knn",
			Kind: "knn",
			Conf: map[string]string{
				confKNNQ: geomio.EncodePoint(q),
				confKNNK: strconv.Itoa(k),
			},
			Output: out,
		}, kept)
		if err != nil {
			return nil, err
		}
		plan.jobSearched(kept, rep)
		pts, err := sys.ReadPointsCtx(ctx, out)
		if err != nil {
			return nil, err
		}
		cands := make([]KNNCandidate, len(pts))
		for i, p := range pts {
			cands[i] = KNNCandidate{Dist: pointDist(p, q), P: p}
		}
		return cands, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, rep, nil
}
