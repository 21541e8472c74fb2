package bench

import (
	"fmt"
	"slices"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

func init() {
	register("fig22", "Voronoi diagram on OSM-like data: runtime sweep + pruning power", runFig22)
	register("fig23", "Voronoi diagram on SYNTH (uniform, Gaussian)", runFig23)
	register("ext-delaunay", "Extension: Delaunay triangulation with safe-triangle flushing", runExtDelaunay)
}

// runExtDelaunay benchmarks the Delaunay triangulation extension: the same
// dangerous-zone machinery as the Voronoi operation, flushing triangles
// whose vertices are all safe.
func runExtDelaunay(x *exp) error {
	t := newTable("sites", "single(ms)", "shadoop-sim(ms)", "speedup", "flushed-early%")
	for _, base := range []int{10000, 20000, 40000, 80000} {
		n := x.n(base)
		pts := datagen.Points(datagen.Clustered, n, benchArea, x.Seed)
		var nTris int
		single := clock(func() { nTris = len(cg.DelaunaySingle(pts)) })
		sys := x.system()
		if _, err := sys.LoadPoints("dt", pts, sindex.STRPlus); err != nil {
			return err
		}
		s, err := runJob(x, sys, "dt", cg.DelaunaySHadoop)
		if err != nil {
			return err
		}
		t.add(n, single, s.sim, ratio(single, s.sim),
			100*float64(s.Counters[cg.CounterFlushedEarly])/float64(nTris))
	}
	t.flush(x.W)
	flushed := t.col("flushed-early%")
	x.check("flushes-most", slices.Min(flushed) > 50,
		"the local step flushes most triangles as safe at every size: %v%%", flushed)
	return nil
}

var benchArea = geom.NewRect(0, 0, 1e6, 1e6)

func runVoronoiSweep(x *exp, dist datagen.Distribution) error {
	t := newTable("sites", "single(ms)", "shadoop-sim(ms)", "speedup", "carried-local%", "carried-vmerge%")
	for _, base := range []int{10000, 20000, 40000, 80000} {
		n := x.n(base)
		pts := datagen.Points(dist, n, benchArea, x.Seed)
		single := clock(func() { cg.VoronoiSingle(pts, benchArea) })
		sys := x.system()
		if _, err := sys.LoadPoints("vd", pts, sindex.STRPlus); err != nil {
			return err
		}
		var stats *cg.VoronoiStats
		s, err := runJob(x, sys, "vd", func(sys *core.System, file string) (struct{}, *mapreduce.Report, error) {
			_, rep, st, err := cg.VoronoiSHadoop(sys, file)
			stats = st
			return struct{}{}, rep, err
		})
		if err != nil {
			return err
		}
		t.add(n, single, s.sim, ratio(single, s.sim),
			100*float64(stats.CarriedAfterLocal)/float64(n),
			100*float64(stats.CarriedAfterVMerge)/float64(n))
	}
	t.flush(x.W)
	prefix := dist.String() + "/"
	local, vmerge := t.col("carried-local%"), t.col("carried-vmerge%")
	x.check(prefix+"local-prunes", slices.Max(local) < 60,
		"the local step carries %v%% of the sites onward: under 60%% at every size", local)
	x.check(prefix+"vmerge-prunes", atMost(vmerge, local) && last(vmerge) < last(local),
		"the V-merge step carries %v%%: no more than the local step at every size, less at the largest", vmerge)
	sp := t.col("speedup")
	x.checkTime(prefix+"speedup-grows", last(sp) >= 1.5*sp[0],
		"the speedup over the single machine grows with size: %v", sp)
	return nil
}

func runFig22(x *exp) error { return runVoronoiSweep(x, datagen.Clustered) }

func runFig23(x *exp) error {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian} {
		fmt.Fprintf(x.W, "\n(%s)\n", dist)
		if err := runVoronoiSweep(x, dist); err != nil {
			return err
		}
	}
	return nil
}
