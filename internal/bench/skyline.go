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
	register("fig24", "Skyline on OSM-like data: runtime sweep + partitions processed", runFig24)
	register("fig25", "Skyline on SYNTH: four distributions", runFig25)
	register("fig26", "Output-sensitive skyline vs regular (incl. worst case)", runFig26)
}

func runFig24(x *exp) error {
	t := newTable("points", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)",
		"hadoop-parts", "shadoop-parts", "sh-speedup")
	for _, base := range []int{50000, 100000, 200000, 400000} {
		n := x.n(base)
		pts := datagen.Points(datagen.Clustered, n, benchArea, x.Seed)
		single := clock(func() { cg.SkylineSingle(pts) })
		sys := x.system()
		h, s, err := heapVsIndex(x, sys, pts, sindex.STRPlus, cg.SkylineHadoop, cg.SkylineSHadoop)
		if err != nil {
			return err
		}
		persistObs(x.Config, fmt.Sprintf("fig24-skyline-hadoop-%d", n), h.Report)
		persistObs(x.Config, fmt.Sprintf("fig24-skyline-shadoop-%d", n), s.Report)
		t.add(n, single, h.sim, s.sim, h.Splits, s.Splits, ratio(single, s.sim))
	}
	t.flush(x.W)
	checkFilterSweep(x, t)
	return nil
}

// checkFilterSweep states the partition counts of Figs. 24 and 27:
// Hadoop processes every partition, so its count grows with the input,
// while the filter step holds SpatialHadoop's nearly flat.
func checkFilterSweep(x *exp, t *table) {
	h, s := t.col("hadoop-parts"), t.col("shadoop-parts")
	x.check("hadoop-grows", increasing(h),
		"Hadoop processes more partitions as the input grows: %v", h)
	x.check("filter-prunes", prunes(s, h),
		"SpatialHadoop processes %v partitions: no more than Hadoop's %v, at most half at the largest input", s, h)
	sp := t.col("sh-speedup")
	x.checkTime("speedup", last(sp) >= 5,
		"SpatialHadoop-sim beats the single machine at least 5x at the largest input: %.1fx", last(sp))
}

func runFig25(x *exp) error {
	t := newTable("distribution", "single(ms)", "hadoop-sim(ms)", "shadoop-sim(ms)",
		"hadoop-parts", "shadoop-parts", "sh-speedup")
	n := x.n(200000)
	for _, dist := range []datagen.Distribution{
		datagen.Uniform, datagen.Gaussian, datagen.Correlated, datagen.ReverselyCorrelated,
	} {
		pts := datagen.Points(dist, n, benchArea, x.Seed)
		single := clock(func() { cg.SkylineSingle(pts) })
		sys := x.system()
		h, s, err := heapVsIndex(x, sys, pts, sindex.STRPlus, cg.SkylineHadoop, cg.SkylineSHadoop)
		if err != nil {
			return err
		}
		t.add(dist.String(), single, h.sim, s.sim, h.Splits, s.Splits, ratio(single, s.sim))
	}
	t.flush(x.W)
	h, s := t.col("hadoop-parts"), t.col("shadoop-parts")
	x.check("filter-prunes", prunes(s, h),
		"on every distribution SpatialHadoop processes %v partitions: no more than Hadoop's %v, at most half on the last", s, h)
	sp := t.col("sh-speedup")
	x.checkTime("speedup", slices.Min(sp) >= 5,
		"SpatialHadoop-sim beats the single machine at least 5x on every distribution: %v", sp)
	return nil
}

func runFig26(x *exp) error {
	for _, dist := range []datagen.Distribution{
		datagen.Uniform, datagen.Gaussian, datagen.ReverselyCorrelated,
	} {
		fmt.Fprintf(x.W, "\n(%s)\n", dist)
		t := newTable("points", "regular-sim(ms)", "output-sensitive-sim(ms)", "skyline-size",
			"regular-merged", "os-merged")
		same := true
		for _, base := range []int{50000, 100000, 200000} {
			n := x.n(base)
			pts := datagen.Points(dist, n, benchArea, x.Seed)
			sys := x.system()
			if _, err := sys.LoadPoints("idx", pts, sindex.Grid); err != nil {
				return err
			}
			reg, err := runJob(x, sys, "idx", cg.SkylineSHadoop)
			if err != nil {
				return err
			}
			sens, err := runJob(x, sys, "idx", skylineOS(true))
			if err != nil {
				return err
			}
			same = same && slices.Equal(reg.res, sens.res)
			t.add(n, reg.sim, sens.sim, len(reg.res),
				reg.Counters[mapreduce.CounterShufflePairs], sens.Counters[mapreduce.CounterShufflePairs])
		}
		t.flush(x.W)
		x.check(dist.String()+"/same-skyline", same, "the output-sensitive skyline equals the regular one at every size")
		// Every skyline point passes the regular job's single reducer.
		size, r, o := t.col("skyline-size"), t.col("regular-merged"), t.col("os-merged")
		x.check(dist.String()+"/no-funnel", slices.Max(o) == 0 && atMost(size, r),
			"the output-sensitive maps write the skyline themselves (%v records merged) where the regular job funnels %v records through one reducer", o, r)
	}
	return nil
}

// skylineOS is the output-sensitive skyline, with or without the
// Theorem-4 broadcast reduction.
func skylineOS(reduceComm bool) op[[]geom.Point] {
	return func(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
		return cg.SkylineOutputSensitive(sys, file, reduceComm)
	}
}
