package proptest_test

import (
	"strings"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/proptest"
	"spatialhadoop/internal/sindex"
)

// This file is the harness's detection-power suite. Each "planted bug" is
// a Check wired to a deliberately wrong oracle — the differential image of
// a classic implementation mutation (dropped boundary point, off-by-one
// truncation, flipped comparison, missing axis flip, strict-vs-inclusive
// intersection, skipped zero-distance pair). The real system disagrees
// with the wrong oracle, so the check must fail on some fixed-seed case —
// proving that an implementation carrying the same mutation would be
// caught — and the shrinker must then minimize the counterexample to at
// most 16 points (the bound promised in the acceptance criteria, verified
// here on every run, not just in the one-off mutation experiment).
//
// The complementary experiment — mutating the real source and watching
// TestPropertyMatrix fail — is documented in DESIGN.md ("Planted-bug
// validation") with the shrunk counterexamples it produced.

// plantedBug pairs a buggy-oracle check with the case generator that
// searches for a seed exposing it.
type plantedBug struct {
	name     string
	check    proptest.Check
	gen      func(seed int64) proptest.Case
	maxSeeds int64
}

func plantedBugs() []plantedBug {
	return []plantedBug{
		{
			// A dropped boundary point (e.g. strCells forgetting to extend
			// the last column to the space edge, or exclusive containment
			// on the query's max edges).
			name: "range-boundary-drop",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("range", sindex.STR, proptest.ShapeBoundary, seed)
			},
			check: func(c proptest.Case) string {
				sys := c.System()
				if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
					return ""
				}
				for _, q := range c.Queries {
					got, _, err := ops.RangeQueryPoints(sys, "pts", q)
					if err != nil {
						return ""
					}
					var want []geom.Point // buggy: strict max edges
					for _, p := range c.Pts {
						if p.X >= q.MinX && p.X < q.MaxX && p.Y >= q.MinY && p.Y < q.MaxY {
							want = append(want, p)
						}
					}
					if proptest.CanonPoints(got) != proptest.CanonPoints(want) {
						return "planted boundary-drop detected"
					}
				}
				return ""
			},
			maxSeeds: 8,
		},
		{
			// An off-by-one in the kNN plan's truncation to k (keeping k-1
			// candidates).
			name: "knn-truncate-offbyone",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("knn", sindex.QuadTree, proptest.ShapeUniform, seed)
			},
			check: func(c proptest.Case) string {
				sys := c.System()
				if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
					return ""
				}
				for _, kq := range c.KNNs {
					got, _, err := ops.KNN(sys, "pts", kq.Q, kq.K)
					if err != nil {
						return ""
					}
					want := proptest.OracleKNN(c.Pts, kq.Q, kq.K)
					if len(want) > 0 {
						want = want[:len(want)-1] // buggy: off-by-one truncation
					}
					if len(got) != len(want) {
						return "planted knn off-by-one detected"
					}
				}
				return ""
			},
			maxSeeds: 8,
		},
		{
			// Strict instead of inclusive MBR intersection in the join
			// predicate: record pairs that touch along an edge vanish.
			name: "join-touch-drop",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("join", sindex.Grid, proptest.ShapeUniform, seed)
			},
			check: func(c proptest.Case) string {
				sys := c.System()
				if _, err := sys.LoadRegions("left", c.Left, c.Tech); err != nil {
					return ""
				}
				if _, err := sys.LoadRegions("right", c.Right, c.Tech); err != nil {
					return ""
				}
				got, _, err := ops.SpatialJoinIndexed(sys, "left", "right")
				if err != nil {
					return ""
				}
				strict := 0 // buggy oracle: open intersection
				for _, l := range c.Left {
					lb := l.Bounds()
					for _, r := range c.Right {
						rb := r.Bounds()
						if lb.MinX < rb.MaxX && rb.MinX < lb.MaxX && lb.MinY < rb.MaxY && rb.MinY < lb.MaxY {
							strict++
						}
					}
				}
				if len(got) != strict {
					return "planted strict-intersection detected"
				}
				return ""
			},
			maxSeeds: 48,
		},
		{
			// A flipped comparison in the dominance test (skyline axis
			// inverted).
			name: "skyline-flip",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("skyline", sindex.KDTree, proptest.ShapeClusters, seed)
			},
			check: func(c proptest.Case) string {
				want := proptest.OracleSkyline(c.Pts)
				var flipped []geom.Point // buggy: Y axis inverted
				for _, p := range c.Pts {
					dominated := false
					for _, q := range c.Pts {
						if q != p && q.X >= p.X && q.Y <= p.Y && (q.X > p.X || q.Y < p.Y) {
							dominated = true
							break
						}
					}
					if !dominated {
						flipped = append(flipped, p)
					}
				}
				if proptest.CanonPoints(want) != proptest.CanonPoints(flipped) {
					return "planted dominance-flip detected"
				}
				return ""
			},
			maxSeeds: 4,
		},
		{
			// Skipping zero-distance pairs in the closest-pair reducer, so
			// exact duplicates are never reported.
			name: "closest-pair-skip-duplicates",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("closest-pair", sindex.Grid, proptest.ShapeDuplicates, seed)
			},
			check: func(c proptest.Case) string {
				if len(c.Pts) < 2 {
					return ""
				}
				sys := c.System()
				if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
					return ""
				}
				pair, _, err := cg.ClosestPairSHadoop(sys, "pts")
				if err != nil {
					return ""
				}
				best := -1.0 // buggy oracle: ignores d == 0
				for i := range c.Pts {
					for j := i + 1; j < len(c.Pts); j++ {
						if d := c.Pts[i].Dist(c.Pts[j]); d > 0 && (best < 0 || d < best) {
							best = d
						}
					}
				}
				if best < 0 || pair.Dist != best {
					return "planted skip-duplicates detected"
				}
				return ""
			},
			maxSeeds: 8,
		},
		{
			// A missing Y-axis flip in the plot rasterizer (screen
			// coordinates grow downward; world coordinates grow upward).
			name: "plot-missing-yflip",
			gen: func(seed int64) proptest.Case {
				return proptest.GenCase("plot", sindex.STRPlus, proptest.ShapeClusters, seed)
			},
			check: func(c proptest.Case) string {
				sys := c.System()
				if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
					return ""
				}
				w, h := c.Width, c.Height
				if w == 0 {
					w, h = 32, 32
				}
				for _, extent := range c.Extents {
					img, _, err := ops.Plot(sys, "pts", ops.PlotConfig{Width: w, Height: h, Extent: extent})
					if err != nil {
						return ""
					}
					want := proptest.OraclePlot(c.Pts, extent, w, h)
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							// buggy: read the oracle unflipped
							if img.GrayAt(x, y).Y != want[(h-1-y)*w+x] {
								return "planted missing-yflip detected"
							}
						}
					}
				}
				return ""
			},
			maxSeeds: 8,
		},
	}
}

// TestPlantedBugsCaughtAndShrunk: every planted bug must be detected
// within its seed budget, and the shrinker must bring the counterexample
// down to at most 16 points (resp. regions), per the acceptance criteria.
func TestPlantedBugsCaughtAndShrunk(t *testing.T) {
	for _, pb := range plantedBugs() {
		pb := pb
		t.Run(pb.name, func(t *testing.T) {
			t.Parallel()
			var failing *proptest.Case
			var msg string
			for seed := int64(1); seed <= pb.maxSeeds; seed++ {
				c := pb.gen(seed)
				if m := pb.check(c); m != "" {
					failing, msg = &c, m
					break
				}
			}
			if failing == nil {
				t.Fatalf("planted bug %s not detected within %d seeds — harness has a blind spot", pb.name, pb.maxSeeds)
			}
			t.Logf("%s: detected (%s), shrinking...", pb.name, msg)
			shrunk := proptest.Shrink(*failing, pb.check)
			if m := pb.check(shrunk); m == "" {
				t.Fatalf("%s: shrunk case no longer fails", pb.name)
			}
			if n := len(shrunk.Pts); n > 16 {
				t.Errorf("%s: shrunk counterexample has %d points, want <= 16", pb.name, n)
			}
			if n := len(shrunk.Left) + len(shrunk.Right); n > 16 {
				t.Errorf("%s: shrunk counterexample has %d regions, want <= 16", pb.name, n)
			}
			t.Logf("%s: shrunk to %d points, %d+%d regions, %d queries, %d knn queries",
				pb.name, len(shrunk.Pts), len(shrunk.Left), len(shrunk.Right), len(shrunk.Queries), len(shrunk.KNNs))
			snippet := proptest.ReproSnippet(shrunk, pb.name)
			if len(snippet) == 0 {
				t.Errorf("%s: empty repro snippet", pb.name)
			}
		})
	}
}

// TestShrinkReporting pins the replay line and repro snippet formats the
// failure reports promise.
func TestShrinkReporting(t *testing.T) {
	c := proptest.Case{
		Op:      "range",
		Tech:    sindex.Grid,
		Seed:    42,
		Pts:     []geom.Point{geom.Pt(1, 2)},
		Queries: []geom.Rect{geom.NewRect(0, 0, 10, 10)},
	}
	line := proptest.ReplayLine(c)
	if want := "go test ./internal/proptest -run TestPropertyReplay -proptest.seed=42"; line != want {
		t.Errorf("ReplayLine = %q, want %q", line, want)
	}
	snippet := proptest.ReproSnippet(c, "boom")
	for _, want := range []string{
		"func TestRepro_range_grid_seed42(t *testing.T)",
		"sindex.Grid",
		"geom.Pt(1, 2)",
		"geom.NewRect(0, 0, 10, 10)",
		`proptest.Checks["range"]`,
		"-proptest.seed=42",
	} {
		if !strings.Contains(snippet, want) {
			t.Errorf("repro snippet missing %q:\n%s", want, snippet)
		}
	}
}
