package cg

import (
	"math"
	"sort"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/sindex"
)

// newSys builds a small cluster whose block size forces multiple
// partitions for the test datasets.
func newSys(blockSize int64) *core.System {
	return core.New(core.Config{BlockSize: blockSize, Workers: 8, Seed: 1})
}

func samePointSets(t *testing.T, name string, got, want []geom.Point) {
	t.Helper()
	g := append([]geom.Point(nil), got...)
	w := append([]geom.Point(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i].Less(g[j]) })
	sort.Slice(w, func(i, j int) bool { return w[i].Less(w[j]) })
	if len(g) != len(w) {
		t.Fatalf("%s: %d points, want %d\n got: %v\nwant: %v", name, len(g), len(w), g, w)
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: point %d = %v, want %v", name, i, g[i], w[i])
		}
	}
}

var testDistributions = []datagen.Distribution{
	datagen.Uniform, datagen.Gaussian, datagen.Correlated,
	datagen.ReverselyCorrelated, datagen.Clustered,
}

func TestSkylineVariantsMatchSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, dist := range testDistributions {
		pts := datagen.Points(dist, 3000, area, 7)
		want := SkylineSingle(pts)

		sys := newSys(8 << 10)
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		got, _, err := SkylineHadoop(sys, "heap")
		if err != nil {
			t.Fatal(err)
		}
		samePointSets(t, dist.String()+"/hadoop", got, want)

		for _, tech := range []sindex.Technique{sindex.Grid, sindex.STR, sindex.STRPlus, sindex.QuadTree} {
			if _, err := sys.LoadPoints("idx-"+tech.String(), pts, tech); err != nil {
				t.Fatal(err)
			}
			got, rep, err := SkylineSHadoop(sys, "idx-"+tech.String())
			if err != nil {
				t.Fatal(err)
			}
			samePointSets(t, dist.String()+"/shadoop/"+tech.String(), got, want)
			if rep.Splits >= rep.SplitsTotal && rep.SplitsTotal > 3 {
				t.Errorf("%v/%v: skyline filter pruned nothing (%d of %d)",
					dist, tech, rep.Splits, rep.SplitsTotal)
			}
		}
	}
}

func TestSkylineOutputSensitiveMatchesSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, dist := range testDistributions {
		pts := datagen.Points(dist, 3000, area, 13)
		want := SkylineSingle(pts)
		sys := newSys(8 << 10)
		if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
			t.Fatal(err)
		}
		for _, reduced := range []bool{false, true} {
			got, _, err := SkylineOutputSensitive(sys, "pts", reduced)
			if err != nil {
				t.Fatal(err)
			}
			samePointSets(t, dist.String()+"/os", got, want)
		}
	}
}

func TestSkylineOSRequiresDisjoint(t *testing.T) {
	pts := datagen.Points(datagen.Uniform, 500, geom.NewRect(0, 0, 100, 100), 3)
	sys := newSys(4 << 10)
	if _, err := sys.LoadPoints("str", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SkylineOutputSensitive(sys, "str", false); err == nil {
		t.Error("expected error for overlapping index")
	}
}

func TestReduceSKYKeepsDominancePower(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Uniform, 2000, area, 17)
	sys := newSys(4 << 10)
	f, err := sys.LoadPoints("pts", pts, sindex.Grid)
	if err != nil {
		t.Fatal(err)
	}
	splits := f.Splits()
	sky := DominancePowerSet(splits)
	for _, s := range splits {
		cell := s.Cover()
		reduced := ReduceSKYForCell(sky, cell)
		if len(reduced) > 4 {
			t.Fatalf("reduced SKY has %d points, theorem allows at most 4", len(reduced))
		}
		// Same dominance power over every point in the cell: test with the
		// actual records of the split.
		recPts, err := geomio.DecodePoints(s.Records())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range recPts {
			full := dominatedBy(p, sky)
			red := dominatedBy(p, reduced)
			if full != red {
				t.Fatalf("point %v: dominated by SKY=%v but by SKY(c)=%v", p, full, red)
			}
		}
	}
}

func dominatedBy(p geom.Point, sky []geom.Point) bool {
	for _, s := range sky {
		if s.Dominates(p) {
			return true
		}
	}
	return false
}

func TestConvexHullVariantsMatchSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, dist := range testDistributions {
		pts := datagen.Points(dist, 3000, area, 23)
		want := ConvexHullSingle(pts)

		sys := newSys(8 << 10)
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		got, _, err := ConvexHullHadoop(sys, "heap")
		if err != nil {
			t.Fatal(err)
		}
		samePointSets(t, dist.String()+"/hull-hadoop", got, want)

		for _, tech := range []sindex.Technique{sindex.Grid, sindex.STR, sindex.QuadTree} {
			if _, err := sys.LoadPoints("idx-"+tech.String(), pts, tech); err != nil {
				t.Fatal(err)
			}
			got, rep, err := ConvexHullSHadoop(sys, "idx-"+tech.String())
			if err != nil {
				t.Fatal(err)
			}
			samePointSets(t, dist.String()+"/hull-shadoop/"+tech.String(), got, want)
			if dist == datagen.Uniform && rep.Splits >= rep.SplitsTotal && rep.SplitsTotal > 6 {
				t.Errorf("%v/%v: hull filter pruned nothing (%d of %d)",
					dist, tech, rep.Splits, rep.SplitsTotal)
			}
		}

		if _, err := sys.LoadPoints("enh", pts, sindex.Grid); err != nil {
			t.Fatal(err)
		}
		got, rep, err := ConvexHullEnhanced(sys, "enh")
		if err != nil {
			t.Fatal(err)
		}
		samePointSets(t, dist.String()+"/hull-enhanced", got, want)
		if dist == datagen.Uniform && rep.Counters[CounterIntermediatePoints] > int64(len(pts))/2 {
			t.Errorf("enhanced hull forwarded %d of %d points", rep.Counters[CounterIntermediatePoints], len(pts))
		}
	}
}

func TestClosestPairMatchesSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, dist := range testDistributions {
		pts := datagen.Points(dist, 2500, area, 29)
		want, ok := ClosestPairSingle(pts)
		if !ok {
			t.Fatal("no single-machine pair")
		}
		sys := newSys(8 << 10)
		for _, tech := range []sindex.Technique{sindex.Grid, sindex.STRPlus, sindex.QuadTree, sindex.KDTree} {
			if _, err := sys.LoadPoints("cp-"+tech.String(), pts, tech); err != nil {
				t.Fatal(err)
			}
			got, rep, err := ClosestPairSHadoop(sys, "cp-"+tech.String())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-9 {
				t.Fatalf("%v/%v: dist %g, want %g", dist, tech, got.Dist, want.Dist)
			}
			if fw := rep.Counters[CounterIntermediatePoints]; fw >= int64(len(pts)) {
				t.Errorf("%v/%v: forwarded all %d points, pruning ineffective", dist, tech, fw)
			}
		}
	}
}

// TestClosestPairDistIsPointDist: every path spells a pair's distance as
// Point.Dist, so the single-machine pair and the MapReduce one (which
// readPairOutput measures) agree exactly. On these 5 000 uniform points
// the divide-and-conquer's squared distance, square-rooted, came out one
// ulp above Point.Dist's hypot.
func TestClosestPairDistIsPointDist(t *testing.T) {
	pts := datagen.Points(datagen.Uniform, 5000, geom.NewRect(0, 0, 1e6, 1e6), 1)
	pair, ok := ClosestPairSingle(pts)
	if !ok {
		t.Fatal("no single-machine pair")
	}
	if want := pair.P.Dist(pair.Q); pair.Dist != want {
		t.Errorf("ClosestPairSingle's Dist is %v, Point.Dist of its pair %v", pair.Dist, want)
	}
}

func TestClosestPairRequiresDisjoint(t *testing.T) {
	pts := datagen.Points(datagen.Uniform, 500, geom.NewRect(0, 0, 100, 100), 3)
	sys := newSys(4 << 10)
	if _, err := sys.LoadPoints("str", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ClosestPairSHadoop(sys, "str"); err == nil {
		t.Error("expected error for overlapping index")
	}
}

func TestFarthestPairMatchesSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Circular, datagen.Clustered} {
		pts := datagen.Points(dist, 2500, area, 31)
		want, _ := FarthestPairSingle(pts)

		sys := newSys(8 << 10)
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		got, _, err := FarthestPairHadoop(sys, "heap")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("%v/hadoop: dist %g, want %g", dist, got.Dist, want.Dist)
		}

		for _, tech := range []sindex.Technique{sindex.Grid, sindex.STR, sindex.QuadTree} {
			if _, err := sys.LoadPoints("fp-"+tech.String(), pts, tech); err != nil {
				t.Fatal(err)
			}
			got, rep, err := FarthestPairSHadoop(sys, "fp-"+tech.String())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-9 {
				t.Fatalf("%v/%v: dist %g, want %g", dist, tech, got.Dist, want.Dist)
			}
			// The pair filter must prune most of the O(G^2) pairs.
			total := rep.SplitsTotal
			if total > 4 && rep.Splits >= total*(total+1)/2 {
				t.Errorf("%v/%v: no pair pruned (%d pairs of %d partitions)", dist, tech, rep.Splits, total)
			}
		}
	}
}
