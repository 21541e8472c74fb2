package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

func init() {
	register("fig21", "Polygon union: single vs Hadoop vs SHadoop vs enhanced, complex & simple polygons", runFig21)
}

// unionDataset builds the "complex" (overlapping many-vertex polygons) or
// "simple" (tessellation cells) union workloads of §10.1.
func unionDataset(kind string, n int, seed int64) []geom.Polygon {
	area := geom.NewRect(0, 0, 1e5, 1e5)
	switch kind {
	case "complex":
		// Overlapping 12-gons sized so neighbours overlap, like map areas.
		radius := 1e5 / (2 * math.Sqrt(float64(n)))
		return datagen.RandomPolygons(n, 12, radius*2.2, area, seed)
	default: // simple
		side := intSqrt(n)
		return datagen.Tessellation(side, side, area, seed)
	}
}

func intSqrt(n int) int {
	s := int(math.Sqrt(float64(n)))
	for s*s < n {
		s++
	}
	return s
}

func runFig21(x *exp) error {
	for _, kind := range []string{"complex", "simple"} {
		fmt.Fprintf(x.W, "\n(%s polygons)\n", kind)
		t := newTable("polygons", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)", "enhanced-sim(ms)",
			"merge-verts(hadoop)", "merge-verts(shadoop)", "merged(enhanced)", "best-speedup")
		for _, base := range []int{400, 800, 1600, 3200} {
			polys := unionDataset(kind, x.n(base), x.Seed)
			regions := polygonRegions(polys)
			single := clock(func() { cg.UnionSingle(polys) })

			sys := x.system()
			if err := sys.LoadRegionsHeap("heap", regions); err != nil {
				return err
			}
			h, err := runJob(x, sys, "heap", cg.UnionHadoop)
			if err != nil {
				return err
			}
			if _, err := sys.LoadRegions("str", regions, sindex.STR); err != nil {
				return err
			}
			s, err := runJob(x, sys, "str", cg.UnionSHadoop)
			if err != nil {
				return err
			}
			if _, err := sys.LoadRegions("grid", regions, sindex.Grid); err != nil {
				return err
			}
			e, err := runJob(x, sys, "grid", cg.UnionEnhanced)
			if err != nil {
				return err
			}
			t.add(len(polys), single, h.sim, s.sim, e.sim,
				h.Counters[cg.CounterIntermediatePoints], s.Counters[cg.CounterIntermediatePoints],
				e.Counters[mapreduce.CounterShufflePairs], ratio(single, min(h.sim, s.sim, e.sim)))
		}
		t.flush(x.W)
		if kind != "complex" {
			continue
		}
		// Random placement removes few interior edges, so Hadoop's one
		// reducer merges far more vertices than SpatialHadoop's.
		hv, sv := t.col("merge-verts(hadoop)"), t.col("merge-verts(shadoop)")
		x.check("merge-shrinks", prunes(sv, hv),
			"SpatialHadoop's merge receives %v vertices: no more than Hadoop's %v, at most half at the largest input", sv, hv)
		x.check("enhanced-map-only", slices.Max(t.col("merged(enhanced)")) == 0,
			"the enhanced union has no merge step: its maps shuffle no record")
		hs, es := t.col("hadoop-sim(ms)"), t.col("enhanced-sim(ms)")
		x.checkTime("enhanced-wins", last(es) < last(hs)/2,
			"the enhanced union's simulated time is under half Hadoop's at the largest input: %s ms vs %s ms", cell(time.Duration(last(es))), cell(time.Duration(last(hs))))
	}
	return nil
}
