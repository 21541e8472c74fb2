package bench

import (
	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/sindex"
)

func init() {
	register("fig27", "Convex hull on OSM-like data: runtime sweep + partitions processed", runFig27)
	register("fig28", "Convex hull on SYNTH (uniform) incl. enhanced variant", runFig28)
}

func runFig27(x *exp) error {
	t := newTable("points", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)",
		"hadoop-parts", "shadoop-parts", "sh-speedup")
	for _, base := range []int{50000, 100000, 200000, 400000} {
		n := x.n(base)
		pts := datagen.Points(datagen.Clustered, n, benchArea, x.Seed)
		single := clock(func() { cg.ConvexHullSingle(pts) })
		sys := x.system()
		h, s, err := heapVsIndex(x, sys, pts, sindex.STRPlus, cg.ConvexHullHadoop, cg.ConvexHullSHadoop)
		if err != nil {
			return err
		}
		t.add(n, single, h.sim, s.sim, h.Splits, s.Splits, ratio(single, s.sim))
	}
	t.flush(x.W)
	checkFilterSweep(x, t)
	return nil
}

func runFig28(x *exp) error {
	t := newTable("points", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)", "enhanced-sim(ms)", "enh-forwarded")
	for _, base := range []int{50000, 100000, 200000, 400000} {
		n := x.n(base)
		pts := datagen.Points(datagen.Uniform, n, benchArea, x.Seed)
		single := clock(func() { cg.ConvexHullSingle(pts) })
		sys := x.system()
		h, s, err := heapVsIndex(x, sys, pts, sindex.Grid, cg.ConvexHullHadoop, cg.ConvexHullSHadoop)
		if err != nil {
			return err
		}
		e, err := runJob(x, sys, "idx", cg.ConvexHullEnhanced)
		if err != nil {
			return err
		}
		t.add(n, single, h.sim, s.sim, e.sim, e.Counters[cg.CounterIntermediatePoints])
	}
	t.flush(x.W)
	n, fwd := t.col("points"), t.col("enh-forwarded")
	share := func(i int) float64 { return fwd[i] / n[i] }
	last := len(n) - 1
	x.check("enhanced-forwards-few", share(0) < 0.1 && share(last) < share(0),
		"the enhanced hull forwards %v points to the final hull: under a tenth of the smallest input, a smaller share of the largest", fwd)
	return nil
}
