package main

import (
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

func serveRange(q geom.Rect) {
	ops.LocalRangeMatches(nil, "pts", nil, q)
	sindex.NewSFilter(nil, 0)
}
