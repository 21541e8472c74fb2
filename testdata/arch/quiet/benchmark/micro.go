package main

import (
	"net/rpc"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/rtree"
	"spatialhadoop/internal/sindex"
)

// The harness may call what serves it only: rtree, net/rpc, the local
// wrappers and the sFilter.
func micro(f *sindex.GlobalIndex, q geom.Rect, pts []geom.Point) {
	var _ *rtree.Tree
	var _ *rpc.Client
	sf := sindex.NewSFilter(f, 0)
	sf.Refine("p", pts)
	sf.MayIntersect("p", q)
	ops.LocalRangeMatches(nil, "pts", nil, q)
}
