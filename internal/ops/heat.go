package ops

import (
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// Hot-partition accounting for the query operations. Scan/prune decisions
// are recorded master-side in the filter step — it runs exactly once per
// job, so no retry can double-count them. Record and match counts are
// task-side and therefore ride the win-gated TaskContext counters under
// the prefixes below: only the winning attempt's buffer merges into the
// job report, and foldPartitionHeat moves the totals into the system's
// sindex.Hotness after the job completes. Pair splits (spatial join) are
// not heat-tracked: their "a*b" partition keys name no single partition
// of either input.

const (
	// heatRecordsPrefix+partition counts records map tasks read from the
	// partition; heatMatchesPrefix+partition counts those matching the
	// query predicate.
	heatRecordsPrefix = "ops.part.records."
	heatMatchesPrefix = "ops.part.matches."
)

// withHeat wraps a filter function to record its per-partition keep/prune
// decisions in the system's hotness aggregator.
func withHeat(sys *core.System, file string, inner mapreduce.FilterFunc) mapreduce.FilterFunc {
	return func(splits []*mapreduce.Split) []*mapreduce.Split {
		kept := inner(splits)
		recordFilterHeat(sys.Hotness(), file, splits, kept)
		return kept
	}
}

// recordFilterHeat counts one filter step: a scan for every kept split, a
// prune for every other. kept must be a subsequence of splits, which is
// what every pruning filter returns.
func recordFilterHeat(hot *sindex.Hotness, file string, splits, kept []*mapreduce.Split) {
	for _, s := range splits {
		if len(kept) > 0 && kept[0] == s {
			hot.RecordScan(file, s.Partition)
			kept = kept[1:]
		} else {
			hot.RecordPrune(file, s.Partition)
		}
	}
}

// countPartitionRecords buffers the split's record count under its
// partition's heat counter (no-op for heap splits).
func countPartitionRecords(tc *mapreduce.TaskContext, split *mapreduce.Split) {
	if split.Partition != "" {
		tc.Inc(heatRecordsPrefix+split.Partition, int64(split.NumRecords()))
	}
}

// countPartitionMatches buffers n query matches under the split's
// partition heat counter (no-op for heap splits).
func countPartitionMatches(tc *mapreduce.TaskContext, split *mapreduce.Split, n int64) {
	if split.Partition != "" {
		tc.Inc(heatMatchesPrefix+split.Partition, n)
	}
}

// foldPartitionHeat moves a finished job's per-partition record/match
// counters into the system's hotness aggregator.
func foldPartitionHeat(sys *core.System, file string, rep *mapreduce.Report) {
	if rep == nil {
		return
	}
	hot := sys.Hotness()
	for name, v := range rep.Counters {
		if part, ok := strings.CutPrefix(name, heatRecordsPrefix); ok {
			hot.AddRecords(file, part, v)
		} else if part, ok := strings.CutPrefix(name, heatMatchesPrefix); ok {
			hot.AddMatches(file, part, v)
		}
	}
}
