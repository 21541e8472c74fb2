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
