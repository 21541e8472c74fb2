// Package ops implements the operations layer of SpatialHadoop (the
// SIGMOD'14 system paper): range queries, k-nearest-neighbour queries and
// distributed spatial join. Each operation follows the same shape as the
// computational geometry suite: a filter step prunes partitions using the
// global index, and map tasks process the survivors.
package ops

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
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
// partition whose boundary misses the query, and map tasks scan the
// survivors; with a heap file every block is scanned.
func RangeQueryPoints(sys *core.System, file string, query geom.Rect) ([]geom.Point, *mapreduce.Report, error) {
	return RangeQueryPointsTo(sys, file, query, file+".range.out")
}

// RangeQueryPointsTo is RangeQueryPoints writing its result to the given
// output file. Concurrent queries over the same input must use distinct
// output names (the serving layer allocates one per request); the default
// shared name is only safe for one query at a time.
func RangeQueryPointsTo(sys *core.System, file string, query geom.Rect, out string) ([]geom.Point, *mapreduce.Report, error) {
	return RangeQueryPointsCtx(context.Background(), sys, file, query, out)
}

// RangeQueryPointsCtx is RangeQueryPointsTo under a context: the job runs
// through RunCtx (admission, cancellation, request-trace spans), and the
// query's partition accesses feed the system's hot-partition telemetry.
func RangeQueryPointsCtx(ctx context.Context, sys *core.System, file string, query geom.Rect, out string) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	job := &mapreduce.Job{
		Name:   "range-points",
		Kind:   "range-points",
		Conf:   map[string]string{confRangeQuery: geomio.EncodeRect(query)},
		Splits: f.Splits(),
		Filter: withHeat(sys, file, func(splits []*mapreduce.Split) []*mapreduce.Split {
			return RangeCandidates(splits, nil, query).Kept
		}),
		Output: out,
	}
	rep, err := sys.Cluster().RunCtx(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	foldPartitionHeat(sys, file, rep)
	pts, err := sys.ReadPointsCtx(ctx, out)
	if err != nil {
		return nil, nil, err
	}
	return pts, rep, nil
}

// RangeQueryRegions returns all regions whose MBR intersects query.
// Replicated records (disjoint partitioning) are deduplicated with the
// reference-point rule: a region is reported only by the partition that
// contains the top-left corner of the intersection of its MBR with the
// query, so each match is produced exactly once.
func RangeQueryRegions(sys *core.System, file string, query geom.Rect) ([]geom.Region, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	conf := map[string]string{confRangeQuery: geomio.EncodeRect(query)}
	if f.Index != nil && f.Index.Disjoint() {
		conf[confRangeSpace] = geomio.EncodeRect(f.Index.Space)
	}
	out := file + ".range.out"
	job := &mapreduce.Job{
		Name:   "range-regions",
		Kind:   "range-regions",
		Conf:   conf,
		Splits: f.Splits(),
		Filter: func(splits []*mapreduce.Split) []*mapreduce.Split {
			return RangeCandidates(splits, nil, query).Kept
		},
		Output: out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, err
	}
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
		for _, blk := range split.Blocks {
			regs, err := BlockRegions(blk)
			if err != nil {
				return err
			}
			recs := blk.Records()
			for i, rg := range regs {
				b := rg.Bounds()
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
				ctx.Write(recs[i])
			}
		}
		return nil
	}
}

// BlockRegions returns the block's records decoded as regions, cached in
// the block's generic decoded-payload slot: each region block is parsed
// once per file lifetime instead of once per map attempt. The returned
// slice is shared and must not be modified.
func BlockRegions(b *dfs.Block) ([]geom.Region, error) {
	v, err := b.Payload(func(recs []string) (any, error) {
		out := make([]geom.Region, len(recs))
		for i, r := range recs {
			rg, err := geomio.DecodeRegion(r)
			if err != nil {
				return nil, err
			}
			out[i] = rg
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]geom.Region), nil
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

func encodeCandidate(c KNNCandidate) string {
	return strconv.FormatFloat(c.Dist, 'g', 17, 64) + ";" + c.Rec
}

func decodeCandidate(s string) (KNNCandidate, error) {
	i := strings.IndexByte(s, ';')
	if i < 0 {
		return KNNCandidate{}, fmt.Errorf("ops: bad knn candidate %q", s)
	}
	d, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return KNNCandidate{}, err
	}
	return KNNCandidate{Dist: d, Rec: s[i+1:]}, nil
}

// KNN returns the k nearest points to q in the file, with the two-round
// protocol of SpatialHadoop (planKNN), one MapReduce job per round. The
// returned report is from the final round.
func KNN(sys *core.System, file string, q geom.Point, k int) ([]geom.Point, *mapreduce.Report, error) {
	return KNNTo(sys, file, q, k, file+".knn")
}

// KNNTo is KNN writing its round outputs to outPrefix+".r1" and
// outPrefix+".r2". Concurrent kNN queries over the same file must use
// distinct prefixes.
func KNNTo(sys *core.System, file string, q geom.Point, k int, outPrefix string) ([]geom.Point, *mapreduce.Report, error) {
	return KNNCtx(context.Background(), sys, file, q, k, outPrefix)
}

// KNNCtx is KNNTo under a context: both rounds run through RunCtx
// (admission, cancellation, request-trace spans) and feed the system's
// hot-partition telemetry. A heap file plans like an indexed one whose
// splits all cover everything: no pruning information, no bitmap filter.
func KNNCtx(ctx context.Context, sys *core.System, file string, q geom.Point, k int, outPrefix string) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	splits := f.Splits()
	var (
		rep    *mapreduce.Report
		rounds int
	)
	pts, err := planKNN(ctx, splits, f.Index != nil && f.Index.Disjoint(), nil, q, k, func(ctx context.Context, sel Selection) ([]KNNCandidate, error) {
		rounds++
		out := outPrefix + ".r" + strconv.Itoa(rounds)
		job := &mapreduce.Job{
			Name: "knn",
			Kind: "knn",
			Conf: map[string]string{
				confKNNQ: geomio.EncodePoint(q),
				confKNNK: strconv.Itoa(k),
			},
			Splits: splits,
			Filter: withHeat(sys, file, func([]*mapreduce.Split) []*mapreduce.Split { return sel.Kept }),
			Output: out,
		}
		var err error
		if rep, err = sys.Cluster().RunCtx(ctx, job); err != nil {
			return nil, err
		}
		foldPartitionHeat(sys, file, rep)
		recs, err := sys.FS().ReadAllCtx(ctx, out)
		if err != nil {
			return nil, err
		}
		cands := make([]KNNCandidate, len(recs))
		for i, r := range recs {
			if cands[i], err = decodeCandidate(r); err != nil {
				return nil, err
			}
		}
		return cands, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, rep, nil
}
