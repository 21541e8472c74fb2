package cg

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestCompareIntervalsSortsAsSortSlice: arcsCoverCircle's sort went from
// sort.Slice with a < a to slices.SortFunc with compareIntervals, and
// gives the same permutation on starts full of NaN, ±0, infinities and
// duplicates. Each interval's end carries its input position.
func TestCompareIntervalsSortsAsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	odd := []float64{0, math.Copysign(0, -1), math.Pi, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(13)
		if rng.Intn(8) == 0 {
			n = 13 + rng.Intn(250)
		}
		ivs := make([]interval, n)
		for i := range ivs {
			a := float64(rng.Intn(6)) / 2
			if rng.Intn(3) == 0 {
				a = odd[rng.Intn(len(odd))]
			}
			ivs[i] = interval{a: a, b: float64(i)}
		}
		want := slices.Clone(ivs)
		sort.Slice(want, func(i, j int) bool { return want[i].a < want[j].a })
		got := slices.Clone(ivs)
		slices.SortFunc(got, compareIntervals)
		for i := range got {
			if got[i].b != want[i].b {
				t.Fatalf("trial %d (%d intervals): slices.SortFunc(compareIntervals) differs from sort.Slice at %d", trial, n, i)
			}
		}
	}
}
