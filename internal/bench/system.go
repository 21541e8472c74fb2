package bench

import (
	"fmt"
	"slices"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

func init() {
	register("table1", "Partitioning techniques: disjointness, skew handling, balance", runTable1)
	register("fig20", "Synthetic distribution sanity summary", runFig20)
	register("sigmod14", "SpatialHadoop system ops: range query, kNN, spatial join", runSigmod14)
}

func runTable1(x *exp) error {
	t := newTable("technique", "disjoint", "handles-skew", "cells", "max/avg(gauss)", "replication(regions)")
	n := x.n(30000)
	pts := datagen.Points(datagen.Gaussian, n, benchArea, x.Seed)
	regions := polygonRegions(datagen.RandomPolygons(x.n(2000), 6, 1e6/60, benchArea, x.Seed))
	techs := []sindex.Technique{
		sindex.Grid, sindex.STR, sindex.STRPlus, sindex.QuadTree,
		sindex.KDTree, sindex.ZCurve, sindex.Hilbert,
	}
	replicates := true
	for _, tech := range techs {
		info := sindex.Table1[tech]
		sys := x.system()
		f, err := sys.LoadPoints("pts", pts, tech)
		if err != nil {
			return err
		}
		counts := map[string]int{}
		for _, b := range f.File.Blocks {
			counts[b.Partition] += b.NumRecords()
		}
		most, total := 0, 0
		for _, c := range counts {
			total += c
			most = max(most, c)
		}
		imb := float64(most) / (float64(total) / float64(len(counts)))

		rf, err := sys.LoadRegions("regs", regions, tech)
		if err != nil {
			return err
		}
		repl := float64(rf.File.Records) / float64(len(regions))
		// A disjoint technique stores a region once per cell it crosses;
		// an overlapping one stores it once.
		replicates = replicates && info.Disjoint == (repl > 1)
		t.add(tech.String(), info.Disjoint, info.HandlesSkew, len(f.Index.Cells), imb, repl)
	}
	t.flush(x.W)
	imb := t.col("max/avg(gauss)")
	grid, strPlus := imb[slices.Index(techs, sindex.Grid)], imb[slices.Index(techs, sindex.STRPlus)]
	x.check("str+-balances", strPlus < grid,
		"on Gaussian data STR+'s max/avg partition load %.2f is below grid's %.2f", strPlus, grid)
	x.check("replication", replicates,
		"the disjoint techniques replicate regions (%v), the overlapping ones do not", t.col("replication(regions)"))
	return nil
}

func runFig20(x *exp) error {
	t := newTable("distribution", "points", "mbr-coverage%", "skyline-size", "hull-size")
	n := x.n(100000)
	dists := []datagen.Distribution{
		datagen.Uniform, datagen.Gaussian, datagen.Correlated,
		datagen.ReverselyCorrelated, datagen.Circular, datagen.Clustered,
	}
	for _, dist := range dists {
		pts := datagen.Points(dist, n, benchArea, x.Seed)
		mbr := geom.RectOf(pts)
		t.add(dist.String(), len(pts), 100*mbr.Area()/benchArea.Area(),
			len(geom.Skyline(pts)), len(geom.ConvexHull(pts)))
	}
	t.flush(x.W)
	// Circular data puts most of its points on the skyline as well, so the
	// skyline claim compares anti-correlated with the benign distributions:
	// all but those two, which sit next to each other in dists.
	sky, hull := t.col("skyline-size"), t.col("hull-size")
	anti, circ := slices.Index(dists, datagen.ReverselyCorrelated), slices.Index(dists, datagen.Circular)
	benign := slices.Delete(slices.Clone(sky), anti, circ+1)
	x.check("skyline-worst-case", sky[anti] > slices.Max(benign),
		"anti-correlated data has the largest skyline of the benign distributions: %v vs %v", sky[anti], benign)
	x.check("hull-worst-case", hull[circ] == slices.Max(hull),
		"circular data has the largest hull: %v of %v", hull[circ], hull)
	return nil
}

func runSigmod14(x *exp) error {
	n := x.n(200000)
	pts := datagen.Points(datagen.Clustered, n, benchArea, x.Seed)

	sysHeap := x.system()
	if err := sysHeap.LoadPointsHeap("pts", pts); err != nil {
		return err
	}
	sysIdx := x.system()
	if _, err := sysIdx.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
		return err
	}
	storages := []struct {
		name string
		sys  *core.System
	}{{"heap (Hadoop)", sysHeap}, {"indexed (SHadoop)", sysIdx}}

	fmt.Fprintln(x.W, "\n(range query, 1% of the space)")
	t := newTable("storage", "time(ms)", "partitions", "results")
	q := geom.NewRect(4e5, 4e5, 5e5, 5e5)
	for _, st := range storages {
		r, err := runJob(x, st.sys, "pts", func(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
			return ops.RangeQueryPoints(sys, file, q)
		})
		if err != nil {
			return err
		}
		persistObs(x.Config, "sigmod14-rangequery-"+strings.Fields(st.name)[0], r.Report)
		t.add(st.name, r.wall, r.Splits, len(r.res))
	}
	t.flush(x.W)
	parts, res := t.col("partitions"), t.col("results")
	x.check("range-prunes", parts[1] <= parts[0]/2,
		"the indexed range query reads %v of the heap's %v partitions, at most half", parts[1], parts[0])
	x.check("range-same", res[0] == res[1], "both storages answer %v results", res)

	fmt.Fprintln(x.W, "\n(kNN, k=20)")
	t = newTable("storage", "time(ms)")
	var knn [][]geom.Point
	for _, st := range storages {
		r, err := runJob(x, st.sys, "pts", func(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
			return ops.KNN(sys, file, geom.Pt(5e5, 5e5), 20)
		})
		if err != nil {
			return err
		}
		knn = append(knn, r.res)
		t.add(st.name, r.wall)
	}
	t.flush(x.W)
	x.check("knn-same", slices.Equal(knn[0], knn[1]), "both storages find the same %d neighbours", len(knn[1]))

	fmt.Fprintln(x.W, "\n(spatial join)")
	a := polygonRegions(datagen.RandomPolygons(x.n(1500), 5, 1e6/80, benchArea, x.Seed))
	b := polygonRegions(datagen.RandomPolygons(x.n(1200), 4, 1e6/70, benchArea, x.Seed+1))
	t = newTable("strategy", "time(ms)", "pairs")
	if err := sysHeap.LoadRegionsHeap("a", a); err != nil {
		return err
	}
	if err := sysHeap.LoadRegionsHeap("b", b); err != nil {
		return err
	}
	pbsm, err := runJob(x, sysHeap, "a", func(sys *core.System, left string) ([]ops.JoinPair, *mapreduce.Report, error) {
		return ops.SpatialJoinPBSM(sys, left, "b", 10)
	})
	if err != nil {
		return err
	}
	t.add("PBSM (Hadoop)", pbsm.wall, len(pbsm.res))
	if _, err := sysIdx.LoadRegions("a", a, sindex.STRPlus); err != nil {
		return err
	}
	if _, err := sysIdx.LoadRegions("b", b, sindex.STRPlus); err != nil {
		return err
	}
	idx, err := runJob(x, sysIdx, "a", func(sys *core.System, left string) ([]ops.JoinPair, *mapreduce.Report, error) {
		return ops.SpatialJoinIndexed(sys, left, "b")
	})
	if err != nil {
		return err
	}
	t.add("indexed (SHadoop)", idx.wall, len(idx.res))
	t.flush(x.W)
	pairs := t.col("pairs")
	x.check("join-same", pairs[0] == pairs[1], "PBSM and the indexed join find %v pairs", pairs)
	return nil
}

// polygonRegions converts polygons to the regions the loaders store.
func polygonRegions(polys []geom.Polygon) []geom.Region {
	out := make([]geom.Region, len(polys))
	for i, pg := range polys {
		out[i] = geom.RegionOf(pg)
	}
	return out
}
