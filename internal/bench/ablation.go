package bench

import (
	"slices"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/voronoi"
)

func init() {
	register("ablation-filter", "Ablation: skyline/hull filter step on vs off", runAblationFilter)
	register("ablation-vd-frontier", "Ablation: Voronoi pruning-rule frontier optimization", runAblationVDFrontier)
	register("ablation-partitioner", "Ablation: partitioning technique per operation", runAblationPartitioner)
	register("ablation-sky-comm", "Ablation: Theorem-4 SKY broadcast reduction (Appendix B)", runAblationSkyComm)
}

// runAblationSkyComm measures the communication optimization of paper
// Appendix B: shipping the full dominance-power set SKY to every task is
// O(|G|^2) points, while the per-cell subset SKY(c) caps it at 4 per task.
func runAblationSkyComm(x *exp) error {
	t := newTable("partitions", "tasks", "sky-points-shipped(full)", "sky-points-shipped(reduced)", "saving%")
	for _, base := range []int{100000, 200000, 400000} {
		// The anti-correlated worst case: the skyline (and hence SKY) is
		// large and the filter step cannot prune partitions.
		pts := datagen.Points(datagen.ReverselyCorrelated, x.n(base), benchArea, x.Seed)
		sys := x.system()
		f, err := sys.LoadPoints("idx", pts, sindex.Grid)
		if err != nil {
			return err
		}
		full, err := runJob(x, sys, "idx", skylineOS(false))
		if err != nil {
			return err
		}
		reduced, err := runJob(x, sys, "idx", skylineOS(true))
		if err != nil {
			return err
		}
		nf, nr := full.Counters["cg.sky.points.shipped"], reduced.Counters["cg.sky.points.shipped"]
		t.add(len(f.Index.Cells), reduced.MapTasks, nf, nr, 100*(1-float64(nr)/float64(nf)))
	}
	t.flush(x.W)
	tasks, reduced := t.col("tasks"), t.col("sky-points-shipped(reduced)")
	bounded := true
	for i := range tasks {
		bounded = bounded && reduced[i] <= 4*tasks[i]
	}
	x.check("theorem4-bound", bounded, "the reduced broadcast ships %v points, at most 4 per task (%v tasks)", reduced, tasks)
	saving := t.col("saving%")
	x.check("saving-grows", increasing(saving), "the saving grows with the partition count: %v%%", saving)
	return nil
}

// runAblationFilter quantifies the filter step's contribution by running
// the indexed skyline and hull jobs with and without it.
func runAblationFilter(x *exp) error {
	pts := datagen.Points(datagen.Clustered, x.n(200000), benchArea, x.Seed)
	sys := x.system()
	if _, err := sys.LoadPoints("idx", pts, sindex.STRPlus); err != nil {
		return err
	}
	t := newTable("operation", "time-off(ms)", "time-on(ms)", "partitions-off", "partitions-on")
	// The Hadoop variant on the indexed file runs the identical job minus
	// the filter function, which is exactly the ablation.
	for _, o := range []struct {
		name    string
		off, on op[[]geom.Point]
	}{
		{"skyline", cg.SkylineHadoop, cg.SkylineSHadoop},
		{"convexhull", cg.ConvexHullHadoop, cg.ConvexHullSHadoop},
	} {
		off, err := runJob(x, sys, "idx", o.off)
		if err != nil {
			return err
		}
		on, err := runJob(x, sys, "idx", o.on)
		if err != nil {
			return err
		}
		t.add(o.name, off.wall, on.wall, off.Splits, on.Splits)
	}
	t.flush(x.W)
	on, off := t.col("partitions-on"), t.col("partitions-off")
	x.check("filter-prunes", prunes(on, off),
		"the filter step cuts the partitions read from %v to %v, at least by half", off, on)
	return nil
}

// runAblationVDFrontier measures how many dangerous-zone evaluations the
// boundary-BFS optimization of §5.2 saves over testing every region.
func runAblationVDFrontier(x *exp) error {
	t := newTable("sites", "regions-tested(direct)", "regions-tested(frontier)", "saving%")
	for _, base := range []int{20000, 40000, 80000} {
		n := x.n(base)
		vd := voronoi.New(datagen.Points(datagen.Uniform, n, benchArea, x.Seed))
		_, apps := vd.SafeSitesFrontier(benchArea)
		t.add(n, n, apps, 100*(1-float64(apps)/float64(n)))
	}
	t.flush(x.W)
	saving := t.col("saving%")
	x.check("saving-grows", slices.Min(saving) > 0 && increasing(saving),
		"the frontier walk tests a falling share of the regions as density grows: saving %v%%", saving)
	return nil
}

// runAblationPartitioner compares partitioning techniques per operation
// (the design-space question behind Table 1) on skewed data. The records
// each filtered job reads stand for its time.
func runAblationPartitioner(x *exp) error {
	pts := datagen.Points(datagen.Clustered, x.n(100000), benchArea, x.Seed)
	techs := []sindex.Technique{sindex.Grid, sindex.STRPlus, sindex.QuadTree, sindex.KDTree}
	t := newTable("technique", "skyline(ms)", "hull(ms)", "closest(ms)", "skyline-read", "hull-read")
	for _, tech := range techs {
		sys := x.system()
		if _, err := sys.LoadPoints("idx", pts, tech); err != nil {
			return err
		}
		sky, err := runJob(x, sys, "idx", cg.SkylineSHadoop)
		if err != nil {
			return err
		}
		hull, err := runJob(x, sys, "idx", cg.ConvexHullSHadoop)
		if err != nil {
			return err
		}
		cp, err := runJob(x, sys, "idx", cg.ClosestPairSHadoop)
		if err != nil {
			return err
		}
		t.add(tech.String(), sky.wall, hull.wall, cp.wall,
			sky.Counters[mapreduce.CounterMapRecordsIn], hull.Counters[mapreduce.CounterMapRecordsIn])
	}
	t.flush(x.W)
	grid, strPlus, quad := 0, slices.Index(techs, sindex.STRPlus), slices.Index(techs, sindex.QuadTree)
	sky, hull := t.col("skyline-read"), t.col("hull-read")
	x.check("skew-adaptive-read-less", sky[strPlus] < sky[grid] && sky[quad] < sky[grid] && hull[quad] < hull[grid],
		"on clustered data the skyline reads %v records under STR+ and %v under the quadtree, fewer than grid's %v; the hull reads %v under the quadtree, fewer than grid's %v",
		sky[strPlus], sky[quad], sky[grid], hull[quad], hull[grid])
	return nil
}
