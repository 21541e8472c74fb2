package sindex

import (
	"math/rand"
	"testing"

	"spatialhadoop/internal/geom"
)

// buildSFilterFixture indexes a deterministic point set and returns the
// index, the per-partition point assignment and the filter.
func buildSFilterFixture(t *testing.T, tech Technique, seed int64) (*GlobalIndex, map[string][]geom.Point, *SFilter) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := geom.NewRect(0, 0, 1000, 1000)
	var pts []geom.Point
	for i := 0; i < 400; i++ {
		// Clustered with outliers, so content MBRs differ from boundaries.
		if i%4 == 0 {
			pts = append(pts, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
		} else {
			pts = append(pts, geom.Pt(200+rng.NormFloat64()*40, 700+rng.NormFloat64()*40))
		}
	}
	for i := range pts {
		if pts[i].X < 0 || pts[i].X > 1000 || pts[i].Y < 0 || pts[i].Y > 1000 {
			pts[i] = geom.Pt(500, 500)
		}
	}
	gi := Build(tech, pts, space.Buffer(1e-6), 8)
	byPart := map[string][]geom.Point{}
	for _, p := range pts {
		c := gi.AssignPoint(p)
		byPart[gi.Cells[c].Key()] = append(byPart[gi.Cells[c].Key()], p)
		gi.Cells[c].Content = gi.Cells[c].Content.ExpandPoint(p)
	}
	return gi, byPart, NewSFilter(gi, 0)
}

// TestSFilterSound: the filter must never report "certainly empty" for a
// (partition, query) pair where a linear scan finds a match — neither from
// the conservative content-MBR bitmaps nor after exact refinement.
func TestSFilterSound(t *testing.T) {
	for _, tech := range allTechniques {
		gi, byPart, f := buildSFilterFixture(t, tech, 42)
		rng := rand.New(rand.NewSource(7))
		queries := []geom.Rect{
			geom.NewRect(0, 0, 1000, 1000),
			geom.NewRect(-50, -50, -1, -1),
			geom.NewRect(199.5, 699.5, 200.5, 700.5),
		}
		for i := 0; i < 200; i++ {
			x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
			queries = append(queries, geom.NewRect(x, y, x+rng.Float64()*300, y+rng.Float64()*300))
		}
		check := func(stage string) {
			for part, pts := range byPart {
				for _, q := range queries {
					any := false
					for _, p := range pts {
						if q.ContainsPoint(p) {
							any = true
							break
						}
					}
					if any && !f.MayIntersect(part, q) {
						t.Fatalf("%v/%s: %s filter false negative for %s q=%v", tech, stage, stage, part, q)
					}
				}
			}
		}
		check("conservative")
		for part, pts := range byPart {
			f.Refine(part, pts)
		}
		check("refined")
		_ = gi
	}
}

// TestSFilterPrunes: after refinement a query far away from a partition's
// records must be pruned.
func TestSFilterPrunes(t *testing.T) {
	_, byPart, f := buildSFilterFixture(t, STRPlus, 3)
	for part, pts := range byPart {
		f.Refine(part, pts)
		mbr := geom.RectOf(pts)
		// A query in the opposite corner of the space, clear of the MBR.
		q := geom.NewRect(990, 990, 999, 999)
		if mbr.MaxX < 900 && mbr.MaxY < 900 {
			if f.MayIntersect(part, q) {
				t.Errorf("refined filter failed to prune %s for far query (mbr %v)", part, mbr)
			}
		}
		far := geom.NewRect(5000, 5000, 6000, 6000)
		if f.MayIntersect(part, far) {
			t.Errorf("query outside the space not pruned for %s", part)
		}
	}
}

// TestSFilterUnknownPartition: probes for partitions the filter has never
// seen must conservatively answer true.
func TestSFilterUnknownPartition(t *testing.T) {
	_, _, f := buildSFilterFixture(t, Grid, 9)
	if !f.MayIntersect("c9999", geom.NewRect(0, 0, 10, 10)) {
		t.Error("unknown partition must answer MayIntersect=true")
	}
}
