package ops

import (
	"math"
	"slices"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// bruteANN is the O(n^2) oracle.
func bruteANN(pts []geom.Point) map[geom.Point]float64 {
	out := make(map[geom.Point]float64, len(pts))
	for i, p := range pts {
		best := math.Inf(1)
		selfSkipped := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Equal(p) && !selfSkipped {
				// A coincident duplicate is a neighbour at distance 0;
				// only the point itself is excluded, which index i does.
				best = 0
				selfSkipped = true
				continue
			}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		out[p] = best
	}
	return out
}

func TestAllNearestNeighborsMatchesBrute(t *testing.T) {
	area := geom.NewRect(0, 0, 10000, 10000)
	for _, tc := range []struct {
		dist datagen.Distribution
		tech sindex.Technique
	}{
		{datagen.Uniform, sindex.Grid},
		{datagen.Clustered, sindex.STRPlus},
		{datagen.Gaussian, sindex.QuadTree},
	} {
		pts := datagen.Points(tc.dist, 2000, area, 61)
		want := bruteANN(pts)
		sys := newSys()
		if _, err := sys.LoadPoints("pts", pts, tc.tech); err != nil {
			t.Fatal(err)
		}
		got, _, err := AllNearestNeighbors(sys, "pts")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("%v/%v: %d results for %d points", tc.dist, tc.tech, len(got), len(pts))
		}
		for _, r := range got {
			wd := want[r.Point]
			if math.Abs(r.Dist-wd) > 1e-9*math.Max(1, wd) {
				t.Fatalf("%v/%v: NN dist of %v = %g, want %g",
					tc.dist, tc.tech, r.Point, r.Dist, wd)
			}
			if d := r.Point.Dist(r.Neighbor); math.Abs(d-r.Dist) > 1e-9 {
				t.Fatalf("reported distance %g inconsistent with neighbour %v (%g)", r.Dist, r.Neighbor, d)
			}
		}
	}
}

func TestAllNearestNeighborsDuplicates(t *testing.T) {
	pts := []geom.Point{{X: 10, Y: 10}, {X: 10, Y: 10}, {X: 500, Y: 500}, {X: 900, Y: 900}}
	sys := newSys()
	if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
		t.Fatal(err)
	}
	got, _, err := AllNearestNeighbors(sys, "pts")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Point.Equal(geom.Pt(10, 10)) && r.Dist != 0 {
			t.Errorf("duplicate point should have NN distance 0, got %g", r.Dist)
		}
	}
}

func TestAllNearestNeighborsRequiresDisjoint(t *testing.T) {
	pts := datagen.Points(datagen.Uniform, 200, geom.NewRect(0, 0, 100, 100), 3)
	sys := newSys()
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AllNearestNeighbors(sys, "pts"); err == nil {
		t.Error("expected error for overlapping index")
	}
}

// TestAllNearestNeighborsLatticeTies: on an integer lattice every inner
// point has four neighbours at distance 1, so the answer is the tie rule:
// Neighbor must be the least of the nearest under the kNN candidate order
// (for an inner point, the one to its left) — in round one and across
// partition edges in round two alike, at any worker count.
func TestAllNearestNeighborsLatticeTies(t *testing.T) {
	var pts []geom.Point
	for x := 0; x < 48; x++ {
		for y := 0; y < 48; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	want := tieOracleANN(pts)
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.QuadTree} {
		for _, workers := range []int{1, 4} {
			sys := core.New(core.Config{BlockSize: 4 << 10, Workers: workers, Seed: 1})
			if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
				t.Fatal(err)
			}
			if f, err := sys.Open("pts"); err != nil || len(f.Splits()) < 4 {
				t.Fatalf("%v: %v, want several partitions so that round two runs", tech, err)
			}
			got, _, err := AllNearestNeighbors(sys, "pts")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(pts) {
				t.Fatalf("%v, %d workers: %d results for %d points", tech, workers, len(got), len(pts))
			}
			for _, r := range got {
				if r.Dist != 1 || r.Neighbor != want[r.Point] {
					t.Fatalf("%v, %d workers: %v's neighbour is %v at %g, want %v at 1", tech, workers, r.Point, r.Neighbor, r.Dist, want[r.Point])
				}
			}
		}
	}
}

// tieOracleANN is the brute-force ANN of distinct points: the nearest other
// point, ties by X, then Y.
func tieOracleANN(pts []geom.Point) map[geom.Point]geom.Point {
	want := make(map[geom.Point]geom.Point, len(pts))
	for _, p := range pts {
		best := geom.Pt(math.Inf(1), 0)
		for _, q := range pts {
			if d, bd := p.Dist(q), p.Dist(best); q != p && (d < bd || d == bd && q.Less(best)) {
				best = q
			}
		}
		want[p] = best
	}
	return want
}

// TestAllNearestNeighborsTieOnMaxEdge: p's two nearest, tied at 1, are r
// beside it in its cell and q on the cell's max-Y edge, which the cell above
// owns; q ranks first (smaller X). p's circle touches that edge without
// crossing it, so round one must leave p uncertain for round two to find q.
func TestAllNearestNeighborsTieOnMaxEdge(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			pts = append(pts, geom.Pt(float64(5+10*i), float64(5+10*j)))
		}
	}
	load := func(pts []geom.Point) (*core.System, []*mapreduce.Split) {
		sys := core.New(core.Config{BlockSize: 4 << 10, Workers: 2, Seed: 1})
		if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
			t.Fatal(err)
		}
		f, err := sys.Open("pts")
		if err != nil {
			t.Fatal(err)
		}
		return sys, f.Splits()
	}
	// An interior max-Y edge of the grid over the filler, and a column of
	// that cell halfway between filler columns: p, q and r lie 4 or more
	// from every filler point. B-1 and B are 1 apart exactly.
	_, splits := load(pts)
	var cell geom.Rect
	for _, a := range splits {
		for _, b := range splits {
			if b.MBR.MinY == a.MBR.MaxY && b.MBR.MinX == a.MBR.MinX && a.MBR.Height() > 4 {
				cell = a.MBR
			}
		}
	}
	x := 10 * math.Ceil((cell.MinX+2)/10)
	if cell.IsEmpty() || x+2 >= cell.MaxX {
		t.Fatalf("no interior max-Y edge with room in %d cells", len(splits))
	}
	p, q, r := geom.Pt(x, cell.MaxY-1), geom.Pt(x, cell.MaxY), geom.Pt(x+1, cell.MaxY-1)
	pts = append(pts, p, q, r)
	sys, splits := load(pts)
	if !slices.ContainsFunc(splits, func(s *mapreduce.Split) bool { return s.MBR == cell }) {
		t.Fatalf("the three points moved the grid: cell %v is gone", cell)
	}
	got, _, err := AllNearestNeighbors(sys, "pts")
	if err != nil {
		t.Fatal(err)
	}
	want := tieOracleANN(pts)
	if want[p] != q {
		t.Fatalf("oracle: %v's neighbour is %v, want %v", p, want[p], q)
	}
	for _, res := range got {
		if res.Neighbor != want[res.Point] {
			t.Errorf("%v's neighbour is %v at %g, want %v", res.Point, res.Neighbor, res.Dist, want[res.Point])
		}
	}
}

// BenchmarkANN times both rounds of AllNearestNeighbors over a loaded
// grid-indexed file: 200 000 uniform and 200 000 clustered points, and the
// local index's worst case, 20 000 points sharing one X, where every probe's
// slab is its whole partition. DESIGN.md quotes these.
func BenchmarkANN(b *testing.B) {
	area := geom.NewRect(0, 0, 1e6, 1e6)
	sameX := datagen.Points(datagen.Uniform, 20_000, area, 5)
	for i := range sameX {
		sameX[i].X = 5e5
	}
	for _, in := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform-200k", datagen.Points(datagen.Uniform, 200_000, area, 3)},
		{"clustered-200k", datagen.Points(datagen.Clustered, 200_000, area, 4)},
		{"same-x-20k", sameX},
	} {
		b.Run(in.name, func(b *testing.B) {
			sys := core.New(core.Config{BlockSize: 64 << 10, Workers: 2, Seed: 1})
			if _, err := sys.LoadPoints("pts", in.pts, sindex.Grid); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if _, _, err := AllNearestNeighbors(sys, "pts"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
