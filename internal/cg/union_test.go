package cg

import (
	"math"
	"testing"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/sindex"
)

// sameBoundary checks two union results agree: equal total boundary length
// and every sampled got-segment midpoint lies on some want-segment.
func sameBoundary(t *testing.T, name string, got, want []geom.Segment) {
	t.Helper()
	gl, wl := geom.TotalLength(got), geom.TotalLength(want)
	if math.Abs(gl-wl) > 1e-6*math.Max(1, wl) {
		t.Fatalf("%s: boundary length %.9g, want %.9g", name, gl, wl)
	}
	step := len(got)/50 + 1
	for i := 0; i < len(got); i += step {
		m := got[i].Midpoint()
		if !geom.OnAnySegment(m, want) {
			t.Fatalf("%s: segment %v not on reference boundary", name, got[i])
		}
	}
}

func TestUnionSingleTessellation(t *testing.T) {
	area := geom.NewRect(0, 0, 100, 100)
	polys := datagen.Tessellation(6, 6, area, 5)
	region, segs := UnionSingle(polys)
	// The tessellation's union is exactly the area rectangle boundary.
	want := geom.RectPoly(area).Edges()
	sameBoundary(t, "tessellation", segs, geom.CanonicalizeSegments(want))
	if len(region.Rings) == 0 {
		t.Fatal("no rings stitched")
	}
}

func TestUnionSingleRandomPolygons(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	polys := datagen.RandomPolygons(60, 8, 60, area, 9)
	region, segs := UnionSingle(polys)
	if len(segs) == 0 {
		t.Fatal("empty boundary")
	}
	// Union invariants: every original polygon's interior sample is inside
	// the union; points far outside are not.
	for _, pg := range polys {
		c := pg.Bounds().Center()
		if pg.ContainsPoint(c) && !region.ContainsPoint(c) {
			t.Fatalf("polygon center %v missing from union", c)
		}
	}
	if region.ContainsPoint(geom.Pt(-50, -50)) {
		t.Error("outside point inside union")
	}
}

func TestUnionVariantsMatchSingle(t *testing.T) {
	area := geom.NewRect(0, 0, 400, 400)
	for _, tc := range []struct {
		name  string
		polys []geom.Polygon
	}{
		{"tessellation", datagen.Tessellation(8, 8, area, 11)},
		{"random", datagen.RandomPolygons(80, 6, 25, area, 13)},
	} {
		_, wantSegs := UnionSingle(tc.polys)

		regions := make([]geom.Region, len(tc.polys))
		for i, pg := range tc.polys {
			regions[i] = geom.RegionOf(pg)
		}

		sys := newSys(2 << 10)
		if err := sys.LoadRegionsHeap("heap", regions); err != nil {
			t.Fatal(err)
		}
		gotH, _, err := UnionHadoop(sys, "heap")
		if err != nil {
			t.Fatal(err)
		}
		_, gotHSegs := UnionRegionsResult(gotH)
		sameBoundary(t, tc.name+"/hadoop", gotHSegs, wantSegs)

		for _, tech := range []sindex.Technique{sindex.STR, sindex.Grid, sindex.QuadTree} {
			if _, err := sys.LoadRegions("idx-"+tech.String(), regions, tech); err != nil {
				t.Fatal(err)
			}
			gotS, _, err := UnionSHadoop(sys, "idx-"+tech.String())
			if err != nil {
				t.Fatal(err)
			}
			_, gotSSegs := UnionRegionsResult(gotS)
			sameBoundary(t, tc.name+"/shadoop/"+tech.String(), gotSSegs, wantSegs)
		}

		// Enhanced: map-only, needs a disjoint index. Its output segments
		// are the single-machine boundary cut at partition lines, so the
		// comparison is by total length and midpoint containment.
		if _, err := sys.LoadRegions("enh", regions, sindex.Grid); err != nil {
			t.Fatal(err)
		}
		gotE, rep, err := UnionEnhanced(sys, "enh")
		if err != nil {
			t.Fatal(err)
		}
		sameBoundary(t, tc.name+"/enhanced", gotE, wantSegs)
		if rep.ReduceTasks != 0 || rep.Counters["reduce.groups"] != 0 {
			t.Errorf("%s: enhanced union must be map-only, got %d reduce tasks and %d reduce groups",
				tc.name, rep.ReduceTasks, rep.Counters["reduce.groups"])
		}
	}
}

func TestUnionEnhancedRequiresDisjoint(t *testing.T) {
	area := geom.NewRect(0, 0, 100, 100)
	polys := datagen.Tessellation(3, 3, area, 2)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	sys := newSys(2 << 10)
	if _, err := sys.LoadRegions("str", regions, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnionEnhanced(sys, "str"); err == nil {
		t.Error("expected error for overlapping index")
	}
}

// UnionRegionsResult recomputes the canonical boundary segments of a union
// result region (already a valid union, so its ring edges are the
// boundary).
func UnionRegionsResult(rg geom.Region) (geom.Region, []geom.Segment) {
	return rg, geom.CanonicalizeSegments(rg.Edges())
}
