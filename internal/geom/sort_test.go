package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestCompareSortsAsSortSlice: the point sorts of the geometry kernels went
// from sort.Slice with Less to slices.SortFunc with Compare, and answer
// exactly as before: same permutation, bit for bit, on inputs full of what
// breaks a strict order — NaN, ±0, infinities, duplicates — at every size
// the two sorts' insertion, quicksort and pattern-breaking paths take.
func TestCompareSortsAsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	odd := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	coord := func() float64 {
		if rng.Intn(3) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return float64(rng.Intn(8))
	}
	bits := func(p []Point) []uint64 {
		out := make([]uint64, 0, 2*len(p))
		for _, q := range p {
			out = append(out, math.Float64bits(q.X), math.Float64bits(q.Y))
		}
		return out
	}
	for trial := 0; trial < 3000; trial++ {
		pts := make([]Point, rng.Intn(300))
		for i := range pts {
			pts[i] = Point{coord(), coord()}
		}
		want := slices.Clone(pts)
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := slices.Clone(pts)
		slices.SortFunc(got, Point.Compare)
		if !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d (%d points): slices.SortFunc(Compare) differs from sort.Slice(Less)", trial, len(pts))
		}
	}
}

// sortSiteSize draws an input length for the sort-site differentials: most
// short (insertion sort), every eighth long enough for pdqsort's
// partitioning and pattern-breaking paths.
func sortSiteSize(rng *rand.Rand) int {
	if rng.Intn(8) == 0 {
		return 13 + rng.Intn(250)
	}
	return rng.Intn(13)
}

// oddCoord draws a coordinate that is often what breaks a strict order:
// NaN, ±0, an infinity or a duplicate.
func oddCoord(rng *rand.Rand) float64 {
	odd := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	if rng.Intn(3) == 0 {
		return odd[rng.Intn(len(odd))]
	}
	return float64(rng.Intn(6)) / 2
}

// TestCompareCutsSortsAsSortSlice: SplitAt's sort went from sort.Slice
// with t < t to slices.SortFunc with compareCuts. Each cut carries its
// input position, so the two permutations are compared exactly.
func TestCompareCutsSortsAsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20000; trial++ {
		cuts := make([]cut, sortSiteSize(rng))
		for i := range cuts {
			cuts[i] = cut{t: oddCoord(rng), p: Pt(float64(i), 0)}
		}
		want := slices.Clone(cuts)
		sort.Slice(want, func(i, j int) bool { return want[i].t < want[j].t })
		got := slices.Clone(cuts)
		slices.SortFunc(got, compareCuts)
		for i := range got {
			if got[i].p != want[i].p {
				t.Fatalf("trial %d (%d cuts): slices.SortFunc(compareCuts) differs from sort.Slice at %d", trial, len(cuts), i)
			}
		}
	}
}

// TestCompareSegsSortsAsSortSlice: dedupeSegments' sort went from
// sort.Slice with segLess to slices.SortFunc with compareSegs; the results
// agree bit for bit.
func TestCompareSegsSortsAsSortSlice(t *testing.T) {
	segLess := func(a, b Segment) bool {
		if !a.A.Equal(b.A) {
			return a.A.Less(b.A)
		}
		return a.B.Less(b.B)
	}
	rng := rand.New(rand.NewSource(23))
	bits := func(s []Segment) []uint64 {
		out := make([]uint64, 0, 4*len(s))
		for _, g := range s {
			out = append(out, math.Float64bits(g.A.X), math.Float64bits(g.A.Y), math.Float64bits(g.B.X), math.Float64bits(g.B.Y))
		}
		return out
	}
	for trial := 0; trial < 20000; trial++ {
		segs := make([]Segment, sortSiteSize(rng))
		for i := range segs {
			segs[i] = Segment{A: Pt(oddCoord(rng), oddCoord(rng)), B: Pt(oddCoord(rng), oddCoord(rng))}
		}
		want := slices.Clone(segs)
		sort.Slice(want, func(i, j int) bool { return segLess(want[i], want[j]) })
		got := slices.Clone(segs)
		slices.SortFunc(got, compareSegs)
		if !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d (%d segments): slices.SortFunc(compareSegs) differs from sort.Slice(segLess)", trial, len(segs))
		}
	}
}
