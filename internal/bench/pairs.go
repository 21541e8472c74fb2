package bench

import (
	"fmt"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/sindex"
)

func init() {
	register("fig29", "Farthest pair: OSM-like, uniform, Gaussian, circular worst case", runFig29)
	register("fig30", "Closest pair on OSM-like data: runtime sweep + intermediate points", runFig30)
	register("fig31", "Closest pair on SYNTH (uniform, Gaussian)", runFig31)
}

func runFig29(x *exp) error {
	for _, dist := range []datagen.Distribution{
		datagen.Clustered, datagen.Uniform, datagen.Gaussian, datagen.Circular,
	} {
		fmt.Fprintf(x.W, "\n(%s)\n", dist)
		t := newTable("points", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)", "pairs-kept", "pairs-all")
		sizes := []int{50000, 100000, 200000}
		if dist == datagen.Circular {
			// The worst case: the hull holds a large share of the input, so
			// the single-reducer Hadoop merge degrades; sizes stay smaller.
			sizes = []int{20000, 40000, 80000}
		}
		same := true
		for _, base := range sizes {
			n := x.n(base)
			pts := datagen.Points(dist, n, benchArea, x.Seed)
			var fp geom.PointPair
			single := clock(func() { fp, _ = cg.FarthestPairSingle(pts) })
			sys := x.system()
			h, s, err := heapVsIndex(x, sys, pts, sindex.STRPlus, cg.FarthestPairHadoop, cg.FarthestPairSHadoop)
			if err != nil {
				return err
			}
			same = same && h.res.Dist == fp.Dist && s.res.Dist == fp.Dist
			t.add(n, single, h.sim, s.sim, s.Splits, s.SplitsTotal*(s.SplitsTotal+1)/2)
		}
		t.flush(x.W)
		x.check(dist.String()+"/same-pair", same, "Hadoop and SpatialHadoop find the single machine's farthest distance at every size")
		kept, all := t.col("pairs-kept"), t.col("pairs-all")
		x.check(dist.String()+"/pairs-pruned", prunes(kept, all),
			"the pair filter keeps %v of %v partition pairs, at most half at the largest input", kept, all)
	}
	return nil
}

func runClosestSweep(x *exp, dist datagen.Distribution, sizes []int) error {
	t := newTable("points", "single(ms)", "shadoop-sim(ms)", "speedup", "intermediate")
	same := true
	for _, base := range sizes {
		n := x.n(base)
		pts := datagen.Points(dist, n, benchArea, x.Seed)
		var cp geom.PointPair
		single := clock(func() { cp, _ = cg.ClosestPairSingle(pts) })
		sys := x.system()
		if _, err := sys.LoadPoints("idx", pts, sindex.STRPlus); err != nil {
			return err
		}
		s, err := runJob(x, sys, "idx", cg.ClosestPairSHadoop)
		if err != nil {
			return err
		}
		same = same && s.res.Dist == cp.Dist
		t.add(n, single, s.sim, ratio(single, s.sim), s.Counters[cg.CounterIntermediatePoints])
	}
	t.flush(x.W)
	prefix := dist.String() + "/"
	x.check(prefix+"same-pair", same, "SpatialHadoop finds the single machine's closest distance at every size")
	n, mid := t.col("points"), t.col("intermediate")
	few := true
	for i := range n {
		few = few && mid[i] < n[i]/10
	}
	x.check(prefix+"delta-prunes", few,
		"the delta buffer lets %v points of %v reach the global step: under a tenth at every size", mid, n)
	sp := t.col("speedup")
	x.checkTime(prefix+"speedup", last(sp) >= 3,
		"SpatialHadoop-sim beats the single machine at least 3x at the largest input: %.1fx", last(sp))
	return nil
}

func runFig30(x *exp) error {
	return runClosestSweep(x, datagen.Clustered, []int{50000, 100000, 200000, 400000})
}

func runFig31(x *exp) error {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian} {
		fmt.Fprintf(x.W, "\n(%s)\n", dist)
		if err := runClosestSweep(x, dist, []int{50000, 100000, 200000}); err != nil {
			return err
		}
	}
	return nil
}
