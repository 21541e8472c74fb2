package proptest_test

import (
	"fmt"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/proptest"
	"spatialhadoop/internal/sindex"
)

// TestPropertyMatrix is the short-mode core of the harness: every
// operation × every technique runs against its brute-force oracle under a
// fixed seed matrix, with the dataset shape rotated over the (op, tech)
// index so the whole shape catalogue is exercised across the sweep.
func TestPropertyMatrix(t *testing.T) {
	bases := []int64{1, 2}
	if testing.Short() {
		bases = bases[:1]
	}
	for _, base := range bases {
		for oi, op := range proptest.CheckOrder {
			for ti, tech := range proptest.Techniques {
				shapeIdx := (oi + ti + int(base)) % len(proptest.Shapes)
				c := proptest.CaseFromSeed(proptest.CaseSeed(base, oi, ti, shapeIdx))
				t.Run(fmt.Sprintf("%s/%v/%v/base%d", op, tech, c.Shape, base), func(t *testing.T) {
					t.Parallel()
					if f := proptest.RunCase(c); f != nil {
						t.Error(f.Report())
					}
				})
			}
		}
	}
}

// TestReplaceWhileQuery runs the serve-replace invariant — a file replaced
// under local, sharded and MapReduce clients only ever answers as one whole
// generation — over every technique. TestPropertyMatrix covers it too; this
// entry gives CI's repeated -race stress step a name to select.
func TestReplaceWhileQuery(t *testing.T) {
	for ti, tech := range proptest.Techniques {
		c := proptest.GenCase("serve-replace", tech, proptest.Shapes[ti%len(proptest.Shapes)], int64(40+ti))
		if f := proptest.RunCase(c); f != nil {
			t.Fatal(f.Report())
		}
	}
}

// TestPropertyReplay re-runs exactly one case from its packed seed — the
// one-liner printed by every failure report. With no seed it is a no-op.
func TestPropertyReplay(t *testing.T) {
	if *proptest.FlagSeed == 0 {
		t.Skip("no -proptest.seed given")
	}
	c := proptest.CaseFromSeed(*proptest.FlagSeed)
	t.Logf("replaying %s × %v × %v (seed %d)", c.Op, c.Tech, c.Shape, c.Seed)
	if f := proptest.RunCase(c); f != nil {
		t.Error(f.Report())
	}
}

// TestPropertySoak runs -proptest.rounds extra full cross-product rounds
// (op × technique × shape), each derived from -proptest.seed. CI's soak
// job passes a time-derived seed; local runs opt in explicitly.
func TestPropertySoak(t *testing.T) {
	rounds := *proptest.FlagRounds
	if rounds == 0 {
		t.Skip("no -proptest.rounds given")
	}
	base := *proptest.FlagSeed
	if base == 0 {
		base = 1
	}
	for r := 0; r < rounds; r++ {
		for _, f := range proptest.RunSoakRound(base + int64(r)) {
			t.Error(f.Report())
		}
		t.Logf("soak round %d/%d (base seed %d) done", r+1, rounds, base+int64(r))
	}
}

// TestInvariantRangeMonotone: growing the query rect can only grow the
// result, for every technique over an adversarial mixture dataset.
func TestInvariantRangeMonotone(t *testing.T) {
	pts := proptest.GenPoints(proptest.ShapeMixture, 120, 31)
	outer := proptest.Space
	mid := geom.NewRect(125, 125, 875, 875)
	inner := geom.NewRect(250, 250, 500, 500)
	for _, tech := range proptest.Techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			t.Parallel()
			if msg := proptest.InvariantRangeMonotone(tech, pts, []geom.Rect{outer, mid, inner}); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestInvariantTechniqueIndependent: range, skyline and hull answers must
// be byte-identical across all seven partitioning techniques.
func TestInvariantTechniqueIndependent(t *testing.T) {
	pts := proptest.GenPoints(proptest.ShapeClusters, 110, 37)
	query := geom.NewRect(100, 100, 700, 650)
	cases := []struct {
		op    string
		canon func(tech sindex.Technique) (string, error)
	}{
		{"range", func(tech sindex.Technique) (string, error) {
			sys := proptest.NewSystem(proptest.DefaultWorkers)
			if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
				return "", err
			}
			got, _, err := ops.RangeQueryPoints(sys, "pts", query)
			return proptest.CanonPoints(got), err
		}},
		{"skyline", func(tech sindex.Technique) (string, error) {
			sys := proptest.NewSystem(proptest.DefaultWorkers)
			if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
				return "", err
			}
			got, _, err := cg.SkylineSHadoop(sys, "pts")
			return proptest.CanonPoints(got), err
		}},
		{"hull", func(tech sindex.Technique) (string, error) {
			sys := proptest.NewSystem(proptest.DefaultWorkers)
			if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
				return "", err
			}
			got, _, err := cg.ConvexHullSHadoop(sys, "pts")
			return proptest.CanonPoints(got), err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.op, func(t *testing.T) {
			t.Parallel()
			if msg := proptest.InvariantTechniqueIndependent(tc.op, tc.canon); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestInvariantWorkerIndependent: the same query must give the same bytes
// whether the cluster has 1, 2, 4 or 9 workers.
func TestInvariantWorkerIndependent(t *testing.T) {
	pts := proptest.GenPoints(proptest.ShapeUniform, 130, 41)
	query := geom.NewRect(50, 200, 800, 900)
	cases := []struct {
		op    string
		canon func(workers int) (string, error)
	}{
		{"range", func(workers int) (string, error) {
			sys := proptest.NewSystem(workers)
			if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
				return "", err
			}
			got, _, err := ops.RangeQueryPoints(sys, "pts", query)
			return proptest.CanonPoints(got), err
		}},
		{"knn", func(workers int) (string, error) {
			sys := proptest.NewSystem(workers)
			if _, err := sys.LoadPoints("pts", pts, sindex.QuadTree); err != nil {
				return "", err
			}
			got, _, err := ops.KNN(sys, "pts", geom.Pt(400, 400), 7)
			return proptest.CanonPoints(got), err
		}},
		{"skyline", func(workers int) (string, error) {
			sys := proptest.NewSystem(workers)
			if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
				return "", err
			}
			got, _, err := cg.SkylineSHadoop(sys, "pts")
			return proptest.CanonPoints(got), err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.op, func(t *testing.T) {
			t.Parallel()
			if msg := proptest.InvariantWorkerIndependent(tc.op, tc.canon); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestInvariantJoinSymmetric: join(A, B) == join(B, A) with sides swapped,
// for every technique.
func TestInvariantJoinSymmetric(t *testing.T) {
	left := proptest.GenRegions(24, 43)
	right := proptest.GenRegions(24, 44)
	for _, tech := range proptest.Techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			t.Parallel()
			if msg := proptest.InvariantJoinSymmetric(tech, left, right); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestInvariantIdempotent: the distributed skyline of a skyline (and hull
// of a hull) is a fixed point.
func TestInvariantIdempotent(t *testing.T) {
	pts := proptest.GenPoints(proptest.ShapeMixture, 100, 47)
	distSkyline := func(in []geom.Point) []geom.Point {
		sys := proptest.NewSystem(proptest.DefaultWorkers)
		if _, err := sys.LoadPoints("pts", in, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
		out, _, err := cg.SkylineSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	distHull := func(in []geom.Point) []geom.Point {
		sys := proptest.NewSystem(proptest.DefaultWorkers)
		if _, err := sys.LoadPoints("pts", in, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
		out, _, err := cg.ConvexHullSHadoop(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if msg := proptest.InvariantIdempotent("skyline", distSkyline, pts); msg != "" {
		t.Error(msg)
	}
	if msg := proptest.InvariantIdempotent("hull", distHull, pts); msg != "" {
		t.Error(msg)
	}
}

// TestGeneratorsDeterministic: the whole harness contract rests on
// generation being a pure function of the seed.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, shape := range proptest.Shapes {
		a := proptest.GenPoints(shape, 64, 99)
		b := proptest.GenPoints(shape, 64, 99)
		if proptest.CanonPoints(a) != proptest.CanonPoints(b) {
			t.Errorf("GenPoints(%v) not deterministic", shape)
		}
		if len(a) != 64 {
			t.Errorf("GenPoints(%v) returned %d points, want 64", shape, len(a))
		}
		for _, p := range a {
			if !proptest.Space.Buffer(1).ContainsPoint(p) {
				t.Errorf("GenPoints(%v) produced far-out point %v", shape, p)
			}
		}
	}
	c1 := proptest.CaseFromSeed(1_020_304)
	c2 := proptest.CaseFromSeed(1_020_304)
	if proptest.CanonPoints(c1.Pts) != proptest.CanonPoints(c2.Pts) || c1.Op != c2.Op || c1.Tech != c2.Tech {
		t.Error("CaseFromSeed not deterministic")
	}
}
