package ops

import "spatialhadoop/internal/mapreduce"

func pair(l, r *mapreduce.Split) *mapreduce.Split {
	return &mapreduce.Split{Blocks: l.Blocks, Extra: r.Blocks}
}
