// Package cg implements the CG_Hadoop suite: the six computational
// geometry operations of the paper (polygon union, Voronoi diagram,
// skyline, convex hull, farthest pair, closest pair), each in the variants
// the paper evaluates — a single-machine baseline, a Hadoop version over
// heap files, a SpatialHadoop version over indexed files, and, where the
// paper defines one, an enhanced/output-sensitive version that eliminates
// the single-machine merge bottleneck.
//
// Every operation is an instance of the five-step skeleton of paper §3
// (see Table 2):
//
//	partition -> filter -> local process -> prune -> merge
//
// Partitioning is done by the loaders in package core; the filter step is
// a mapreduce.FilterFunc over the global index; local processing runs in
// map tasks; pruning either discards data (skyline, closest pair) or
// early-flushes final output (enhanced union, Voronoi, output-sensitive
// skyline) through TaskContext.Write; merging is the reduce/commit step.
package cg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// Conf keys broadcast to tasks.
const (
	confSky           = "sky"            // skyline-os: the dominance power set
	confSkyReduceComm = "sky.reducecomm" // skyline-os: "1" to use the Theorem-4 subset per cell
	confMBRs          = "mbrs"           // convexhull-enhanced: every partition's content MBR
	confSpace         = "space"          // voronoi, voronoi-hadoop: the data space
	confStrips        = "strips"         // voronoi-hadoop: the strip count
)

// The suite's job kinds: a job names one of these and carries its Conf;
// the master in process and every worker build the task functions from the
// same registration.
func init() {
	static := func(name string, kf mapreduce.KindFuncs) {
		mapreduce.RegisterKind(name, func(map[string]string) (mapreduce.KindFuncs, error) { return kf, nil })
	}
	hull := localThenGlobal(geom.ConvexHull)
	static("skyline", localThenGlobal(geom.Skyline))
	static("convexhull", hull)
	static("closestpair", mapreduce.KindFuncs{Map: closestPairMap, Reduce: closestPairReduce})
	static("farthestpair-hadoop", mapreduce.KindFuncs{Map: hull.Map, Reduce: farthestHullsReduce})
	static("farthestpair", mapreduce.KindFuncs{Map: farthestPairMap, Reduce: farthestPairReduce})
	static("union", mapreduce.KindFuncs{Map: unionMap, Reduce: unionReduce})
	static("union-enhanced", mapreduce.KindFuncs{Map: unionEnhancedMap})
	static("voronoi", mapreduce.KindFuncs{Map: voronoiMap, Reduce: voronoiVMerge})
	static("delaunay", mapreduce.KindFuncs{Map: delaunayMap, Reduce: delaunayReduce})
	mapreduce.RegisterKind("skyline-os", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		sky, err := geomio.DecodePoints(strings.Fields(conf[confSky]))
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		return mapreduce.KindFuncs{Map: skylineOSMap(sky, conf[confSkyReduceComm] == "1")}, nil
	})
	mapreduce.RegisterKind("convexhull-enhanced", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		boxes, err := decodeRects(conf[confMBRs])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		return mapreduce.KindFuncs{Map: hullEnhancedMap(boxes), Reduce: hull.Reduce}, nil
	})
	mapreduce.RegisterKind("voronoi-hadoop", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		space, err := geomio.DecodeRect(conf[confSpace])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		strips, err := strconv.Atoi(conf[confStrips])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		return mapreduce.KindFuncs{Map: voronoiStripMap(space, strips), Reduce: voronoiStripReduce}, nil
	})
}

// localThenGlobal is the job the Hadoop and SpatialHadoop skyline and convex
// hull share (Algorithms 4 and 5): the kernel — geom.Skyline or
// geom.ConvexHull, whose answer over a union is its answer over the parts'
// answers — runs over each split in the map, over each task's output in the
// combiner, and over what is left in a single reducer.
func localThenGlobal(kernel func([]geom.Point) []geom.Point) mapreduce.KindFuncs {
	// over applies the kernel to encoded points and hands each survivor on.
	over := func(values []string, next func(string)) error {
		pts, err := geomio.DecodePoints(values)
		if err != nil {
			return err
		}
		for _, p := range kernel(pts) {
			next(geomio.EncodePoint(p))
		}
		return nil
	}
	return mapreduce.KindFuncs{
		Map: func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
			pts, err := split.Points()
			if err != nil {
				return err
			}
			for _, p := range kernel(pts) {
				ctx.Emit("1", geomio.EncodePoint(p))
				ctx.Inc(CounterIntermediatePoints, 1)
			}
			return nil
		},
		Combine: func(ctx *mapreduce.TaskContext, key string, values []string) error {
			return over(values, func(rec string) { ctx.Emit(key, rec) })
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values []string) error {
			return over(values, ctx.Write)
		},
	}
}

// errNotIndexed reports an operation run on a file without a global index.
func errNotIndexed(op, file string) error {
	return fmt.Errorf("cg: %s requires a spatially indexed file, %q has no index", op, file)
}

// errNotDisjoint reports an operation that needs disjoint partitions run
// on an overlapping index (see paper Table 2, "disjoint spatial").
func errNotDisjoint(op, file string) error {
	return fmt.Errorf("cg: %s requires a disjoint spatial partitioning of %q", op, file)
}

// sortPoints sorts points canonically in place and returns the slice.
func sortPoints(pts []geom.Point) []geom.Point {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	return pts
}

// Counter names reported by the operations, used by the benchmark harness
// to reproduce the paper's pruning-power figures.
const (
	// CounterPartitionsProcessed counts map tasks actually run after the
	// filter step (Figs. 24b and 27b).
	CounterPartitionsProcessed = mapreduce.CounterSplitsMapped
	// CounterIntermediatePoints counts records that survive local pruning
	// and reach the merge step (Figs. 22b and 30b).
	CounterIntermediatePoints = "cg.intermediate.points"
	// CounterFlushedEarly counts final output records flushed by the
	// pruning step, bypassing the merge.
	CounterFlushedEarly = "cg.flushed.early"
)

// FilterIntersecting returns a filter keeping splits whose record cover
// (boundary united with content MBR) intersects r. The union matters for
// overlapping techniques, whose sample-derived boundaries under-cover.
func FilterIntersecting(r geom.Rect) mapreduce.FilterFunc {
	return func(splits []*mapreduce.Split) []*mapreduce.Split {
		var keep []*mapreduce.Split
		for _, s := range splits {
			if s.Cover().Intersects(r) {
				keep = append(keep, s)
			}
		}
		return keep
	}
}

// contentOf returns the split's minimal content MBR, falling back to the
// partition boundary when the loader did not record one.
func contentOf(s *mapreduce.Split) geom.Rect {
	if !s.ContentMBR.IsEmpty() {
		return s.ContentMBR
	}
	return s.MBR
}
