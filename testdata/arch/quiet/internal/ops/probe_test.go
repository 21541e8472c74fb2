package ops

import (
	"sort"

	"spatialhadoop/internal/rtree"
)

// A test may use the oracle and a reflective sort.
func oracle(xs []float64) *rtree.Tree {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return nil
}
