package cg

import (
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// extent is a second record bound beside Split.Cover.
func extent(s *mapreduce.Split) geom.Rect {
	if s.ContentMBR.IsEmpty() {
		return s.MBR
	}
	return s.ContentMBR
}

func candidates(hot *sindex.Hotness, splits []*mapreduce.Split, q geom.Rect) []*mapreduce.Split {
	for _, s := range splits {
		hot.RecordScan("pts", s.Partition)
	}
	return ops.RangeCandidates(splits, q)
}
