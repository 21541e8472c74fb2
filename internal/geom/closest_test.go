package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// closestInputs returns the differential's input families: random points,
// many copies of the median point, all on one vertical line, all on one
// horizontal line, and an integer grid (every pair distance tied).
func closestInputs(rng *rand.Rand, n int) map[string][]Point {
	random := randPoints(rng, n, 100)
	median := slices.Clone(random)
	slices.SortFunc(median, Point.Compare)
	m := median[len(median)/2]
	for i := range median {
		if rng.Intn(2) == 0 {
			median[i] = m
		}
	}
	rng.Shuffle(len(median), func(i, j int) { median[i], median[j] = median[j], median[i] })
	sameX, sameY, grid := make([]Point, n), make([]Point, n), make([]Point, n)
	side := int(math.Sqrt(float64(n))) + 1
	for i := range sameX {
		sameX[i] = Pt(7, rng.Float64()*100)
		sameY[i] = Pt(rng.Float64()*100, -3)
		grid[i] = Pt(float64(i%side), float64(i/side))
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return map[string][]Point{"random": random, "median": median, "same-x": sameX, "same-y": sameY, "grid": grid}
}

// TestClosestPairDifferential checks the divide-and-conquer against the
// all-pairs oracle: the distance always, and the pair itself whenever the
// minimum is attained by one pair only.
func TestClosestPairDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		if trial%10 == 0 {
			n = 2 + rng.Intn(600)
		}
		for name, pts := range closestInputs(rng, n) {
			got, ok := ClosestPair(pts)
			want, _ := ClosestPairBrute(pts)
			if !ok || got.Dist != want.Dist {
				t.Fatalf("trial %d %s (%d points): distance %g, brute force %g", trial, name, n, got.Dist, want.Dist)
			}
			if got.P.Dist2(got.Q) != want.P.Dist2(want.Q) {
				t.Fatalf("trial %d %s: pair %v-%v is not at the distance reported", trial, name, got.P, got.Q)
			}
			best, ties := want.P.Dist2(want.Q), 0
			for i := range pts {
				for j := i + 1; j < len(pts); j++ {
					if pts[i].Dist2(pts[j]) == best {
						ties++
					}
				}
			}
			same := got.P == want.P && got.Q == want.Q || got.P == want.Q && got.Q == want.P
			if ties == 1 && !same {
				t.Fatalf("trial %d %s: unique closest pair %v-%v, got %v-%v", trial, name, want.P, want.Q, got.P, got.Q)
			}
		}
	}
}

// TestClosestPairLeavesInput: the kernel sorts a copy; the caller's slice
// keeps its order, bit for bit.
func TestClosestPairLeavesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for name, pts := range closestInputs(rng, 500) {
		before := slices.Clone(pts)
		ClosestPair(pts)
		if !slices.Equal(pts, before) {
			t.Fatalf("%s: ClosestPair modified its input", name)
		}
	}
}

// TestClosestPairAllocs: one buffer for the x-order and its scratch,
// nothing per level of the recursion, so the count does not grow with n.
func TestClosestPairAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	small, large := randPoints(rng, 64, 100), randPoints(rng, 20000, 100)
	a := testing.AllocsPerRun(5, func() { ClosestPair(small) })
	b := testing.AllocsPerRun(5, func() { ClosestPair(large) })
	if a != b || b > 2 {
		t.Fatalf("ClosestPair allocates %v times at 64 points, %v at 20000; want the same small constant", a, b)
	}
}

// closestMerge is the earlier divide and conquer, kept as the oracle for
// inputs too large for brute force: each level merges its halves' y-orders
// as merge sort does, and the strip is filtered from the merged run.
func closestMerge(pts []Point) (PointPair, bool) {
	if len(pts) < 2 {
		return PointPair{}, false
	}
	px := slices.Clone(pts)
	slices.SortFunc(px, Point.Compare)
	p, q, _ := closestMergeRec(px, make([]Point, len(px)))
	return PointPair{P: p, Q: q, Dist: p.Dist(q)}, true
}

// closestMergeRec takes px sorted canonically by x and leaves it sorted
// by y; tmp is scratch of px's length.
func closestMergeRec(px, tmp []Point) (Point, Point, float64) {
	n := len(px)
	if n <= 3 {
		best := math.Inf(1)
		var a, b Point
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := px[i].Dist2(px[j]); d < best {
					best, a, b = d, px[i], px[j]
				}
			}
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && px[j].Y < px[j-1].Y; j-- {
				px[j], px[j-1] = px[j-1], px[j]
			}
		}
		return a, b, best
	}
	mid := n / 2
	midX := px[mid].X
	la, lb, ld := closestMergeRec(px[:mid], tmp[:mid])
	ra, rb, rd := closestMergeRec(px[mid:], tmp[mid:])
	a, b, best := la, lb, ld
	if rd < best {
		a, b, best = ra, rb, rd
	}
	l, r := px[:mid], px[mid:]
	for k := range tmp {
		if len(r) == 0 || len(l) > 0 && !(r[0].Y < l[0].Y) {
			tmp[k], l = l[0], l[1:]
		} else {
			tmp[k], r = r[0], r[1:]
		}
	}
	copy(px, tmp)
	limit := math.Sqrt(best)
	strip := tmp[:0]
	for _, p := range px {
		if math.Abs(p.X-midX) < limit {
			strip = append(strip, p)
		}
	}
	for i := 0; i < len(strip); i++ {
		for j := i + 1; j < len(strip) && strip[j].Y-strip[i].Y < limit; j++ {
			if d := strip[i].Dist2(strip[j]); d < best {
				best, a, b = d, strip[i], strip[j]
				limit = math.Sqrt(best)
			}
		}
	}
	return a, b, best
}

// TestClosestPairLargeDifferential checks the kernel against the merge
// oracle at sizes brute force cannot reach: the same distance, and a pair
// at that distance. Besides closestInputs' families it runs a narrow
// vertical band, where every strip is wide and its x-order is far from
// its y-order.
func TestClosestPairLargeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{20000, 100000} {
		inputs := closestInputs(rng, n)
		band := make([]Point, n)
		for i := range band {
			band[i] = Pt(rng.Float64()*1e-3, rng.Float64()*100)
		}
		inputs["band"] = band
		for name, pts := range inputs {
			got, ok := ClosestPair(pts)
			want, _ := closestMerge(pts)
			if !ok || got.Dist != want.Dist {
				t.Fatalf("%s (%d points): distance %g, merge oracle %g", name, n, got.Dist, want.Dist)
			}
			if got.P.Dist2(got.Q) != want.P.Dist2(want.Q) {
				t.Fatalf("%s (%d points): pair %v-%v is not at the distance reported", name, n, got.P, got.Q)
			}
		}
	}
}

// fuzzLattice decodes two bytes per point, up to 256 points, onto the
// 32 × 256 integer lattice: x values are shared often and distances tie
// often, yet strips span several columns, where x- and y-order differ.
func fuzzLattice(data []byte) []Point {
	pts := make([]Point, 0, min(len(data)/2, 256))
	for i := 0; i+1 < len(data) && len(pts) < 256; i += 2 {
		pts = append(pts, Pt(float64(data[i]%32), float64(data[i+1])))
	}
	return pts
}

// FuzzClosestPair: on any lattice input the kernel finds the brute-force
// distance, returns a pair at that distance, and leaves its input as it was.
func FuzzClosestPair(f *testing.F) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{2, 9, 70, 256} {
		for _, pts := range closestInputs(rng, n) {
			data := make([]byte, 0, 2*len(pts))
			for _, p := range pts {
				data = append(data, byte(int(math.Floor(p.X))&31), byte(int(math.Floor(p.Y))))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzLattice(data)
		before := slices.Clone(pts)
		got, ok := ClosestPair(pts)
		want, wok := ClosestPairBrute(pts)
		if ok != wok || got.Dist != want.Dist {
			t.Fatalf("%d points: distance %g (ok %v), brute force %g (ok %v)", len(pts), got.Dist, ok, want.Dist, wok)
		}
		if got.P.Dist2(got.Q) != want.P.Dist2(want.Q) {
			t.Fatalf("pair %v-%v is not at the distance reported", got.P, got.Q)
		}
		if !slices.Equal(pts, before) {
			t.Fatal("ClosestPair modified its input")
		}
	})
}
