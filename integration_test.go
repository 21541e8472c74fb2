// Integration tests: whole-system flows across block sizes, partitioning
// techniques and injected failures — the cross-module behaviours no unit
// test sees.
package spatialhadoop_test

import (
	"math"
	"sort"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// TestEndToEndPipeline loads one clustered dataset at several block sizes
// and runs every operation, comparing against single-machine oracles.
func TestEndToEndPipeline(t *testing.T) {
	area := geom.NewRect(0, 0, 50_000, 50_000)
	pts := datagen.Points(datagen.Clustered, 8000, area, 71)

	wantSky := cg.SkylineSingle(pts)
	wantHull := cg.ConvexHullSingle(pts)
	wantCP, _ := cg.ClosestPairSingle(pts)
	wantFP, _ := cg.FarthestPairSingle(pts)
	wantTris := len(cg.DelaunaySingle(pts))

	for _, blockSize := range []int64{4 << 10, 16 << 10, 64 << 10} {
		sys := core.New(core.Config{BlockSize: blockSize, Workers: 6, Seed: 1})
		if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}

		sky, _, err := cg.SkylineSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if len(sky) != len(wantSky) {
			t.Fatalf("block %d: skyline %d, want %d", blockSize, len(sky), len(wantSky))
		}

		hull, _, err := cg.ConvexHullSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if len(hull) != len(wantHull) {
			t.Fatalf("block %d: hull %d, want %d", blockSize, len(hull), len(wantHull))
		}

		cp, _, err := cg.ClosestPairSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cp.Dist-wantCP.Dist) > 1e-9 {
			t.Fatalf("block %d: closest %g, want %g", blockSize, cp.Dist, wantCP.Dist)
		}

		fp, _, err := cg.FarthestPairSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fp.Dist-wantFP.Dist) > 1e-9 {
			t.Fatalf("block %d: farthest %g, want %g", blockSize, fp.Dist, wantFP.Dist)
		}

		tris, _, err := cg.DelaunaySHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if len(tris) != wantTris {
			t.Fatalf("block %d: %d triangles, want %d", blockSize, len(tris), wantTris)
		}

		vd, _, _, err := cg.VoronoiSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if len(vd) != len(pts) {
			t.Fatalf("block %d: %d voronoi regions, want %d", blockSize, len(vd), len(pts))
		}
	}
}

// TestOperationsSurviveTaskFailures injects transient task failures and
// checks every operation still produces the exact answer (the runtime must
// retry without duplicating early-flushed output).
func TestOperationsSurviveTaskFailures(t *testing.T) {
	area := geom.NewRect(0, 0, 50_000, 50_000)
	pts := datagen.Points(datagen.Clustered, 6000, area, 73)
	sys := core.New(core.Config{BlockSize: 8 << 10, Workers: 6, Seed: 1})
	if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
		t.Fatal(err)
	}
	// A quarter of the map attempts die once, seeded: the same attempts in
	// every run.
	sys.Cluster().SetFault(fault.Plan{Seed: 4, MapFailRate: 0.25})

	sky, _, err := cg.SkylineOutputSensitive(sys, "pts", true)
	if err != nil {
		t.Fatal(err)
	}
	want := cg.SkylineSingle(pts)
	if len(sky) != len(want) {
		t.Fatalf("skyline under failures: %d, want %d", len(sky), len(want))
	}

	vd, _, _, err := cg.VoronoiSHadoop(sys, "pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(vd) != len(pts) {
		t.Fatalf("voronoi under failures: %d regions, want %d", len(vd), len(pts))
	}
	seen := map[geom.Point]bool{}
	for _, sr := range vd {
		if seen[sr.Site] {
			t.Fatalf("site %v emitted twice under failures", sr.Site)
		}
		seen[sr.Site] = true
	}

	cp, _, err := cg.ClosestPairSHadoop(sys, "pts")
	if err != nil {
		t.Fatal(err)
	}
	wantCP, _ := cg.ClosestPairSingle(pts)
	if math.Abs(cp.Dist-wantCP.Dist) > 1e-9 {
		t.Fatalf("closest pair under failures: %g, want %g", cp.Dist, wantCP.Dist)
	}
	if len(sys.Cluster().Injector().Events()) == 0 {
		t.Fatal("no attempt was injected; the test exercised no failure")
	}
}

// TestQueriesAgreeAcrossIndexes runs the same queries over every index
// layout and the heap layout; all must agree exactly.
func TestQueriesAgreeAcrossIndexes(t *testing.T) {
	area := geom.NewRect(0, 0, 10_000, 10_000)
	pts := datagen.Points(datagen.Gaussian, 5000, area, 79)
	q := geom.NewRect(4000, 4000, 6000, 6000)

	canonical := func(res []geom.Point) []geom.Point {
		out := append([]geom.Point(nil), res...)
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}

	sys := core.New(core.Config{BlockSize: 8 << 10, Workers: 6, Seed: 1})
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	ref, _, err := ops.RangeQueryPoints(sys, "heap", q)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(ref)

	for _, tech := range []sindex.Technique{
		sindex.Grid, sindex.STR, sindex.STRPlus, sindex.QuadTree,
		sindex.KDTree, sindex.ZCurve, sindex.Hilbert,
	} {
		name := "idx-" + tech.String()
		if _, err := sys.LoadPoints(name, pts, tech); err != nil {
			t.Fatal(err)
		}
		got, _, err := ops.RangeQueryPoints(sys, name, q)
		if err != nil {
			t.Fatal(err)
		}
		g := canonical(got)
		if len(g) != len(want) {
			t.Fatalf("%v: %d results, want %d", tech, len(g), len(want))
		}
		for i := range want {
			if !g[i].Equal(want[i]) {
				t.Fatalf("%v: result %d differs", tech, i)
			}
		}

		knnGot, _, err := ops.KNN(sys, name, geom.Pt(5000, 5000), 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(knnGot) != 7 {
			t.Fatalf("%v: kNN returned %d", tech, len(knnGot))
		}
	}
}

// TestDeterministicReruns checks that rerunning an operation on the same
// system yields byte-identical output files.
func TestDeterministicReruns(t *testing.T) {
	area := geom.NewRect(0, 0, 10_000, 10_000)
	pts := datagen.Points(datagen.Clustered, 4000, area, 83)
	sys := core.New(core.Config{BlockSize: 8 << 10, Workers: 6, Seed: 1})
	if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
		t.Fatal(err)
	}
	run := func() []string {
		if _, _, err := cg.SkylineOutputSensitive(sys, "pts", true); err != nil {
			t.Fatal(err)
		}
		recs, err := sys.FS().ReadAll("pts.skyline-os.out")
		if err != nil {
			t.Fatal(err)
		}
		out := append([]string(nil), recs...)
		sort.Strings(out)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("rerun changed output size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun changed record %d", i)
		}
	}
}
