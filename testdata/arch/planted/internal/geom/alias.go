package geom

import srt "sort"

func sortXs(xs []float64) {
	srt.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
