package ops

import "spatialhadoop/internal/mapreduce"

// Reading a split's extra blocks is not building a pair split, and a map
// that selects its matches formats none.
func joinMap(ctx *mapreduce.TaskContext, split *mapreduce.Split, ids []int) {
	_ = split.Extra
	ctx.WriteSelected(0, ids)
}
