package main

// The benchmark's vocabulary: workload and metric names, units, directions
// and bounds. BENCHMARK.json at the repo root lists the same names; a test
// holds the two together. Later issues cite these names, so they are final.

const (
	wServeHot     = "serve-hot"
	wServeSharded = "serve-sharded"
	wJobsInproc   = "jobs-inproc"
	wJobsRemote   = "jobs-remote"
	wIngestQuery  = "ingest-query"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wServeHot, "selective range/kNN over HTTP from pinned partitions; serve, sindex, rtree and ops.Local* do the work; the fits-in-cache case"},
	{wServeSharded, "same corpus, pool and seed through scatter/gather to two serve workers; worker, the wire types and serve/sharded.go do the work serve-hot bypasses"},
	{wJobsInproc, "batch operations as MapReduce jobs on the in-process cluster, wall time per operation as in the paper; mapreduce, ops, cg and geom do the work"},
	{wJobsRemote, "the remotable job kinds on a master and two workers at replication 2; pull dispatch, replica reads, sealed spills and chunked shuffle fetch"},
	{wIngestQuery, "index builds that replace a live file beside cold queries; dfs, geomio, sindex build, rtree bulk load and PinSplit; the larger-than-cache case"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression. Everything timed is in reference time (reference.go).
// failed_share is not here because a metric must never read 0: failures
// travel in the result line's attempted/failed fields.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p95_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KiB", lower, 0.15},
	{"rss_peak_mb", "MiB", lower, 0.15},
}

// perLayer is the ledger: one number per layer boundary, taken from
// outside the program. The prefix is the module the number belongs to. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	{"geomio.decode_ns_per_rec", "ns", lower, 0},
	{"geomio.encode_ns_per_rec", "ns", lower, 0},

	{"dfs.write_ns_per_rec", "ns", lower, 0},
	{"dfs.block_points_cold_us", "us", lower, 0},
	{"dfs.block_points_warm_ns", "ns", lower, 0},
	{"dfs.seal_mb_per_s", "MiB/s", higher, 0},
	{"dfs.unseal_mb_per_s", "MiB/s", higher, 0},
	{"dfs.stored_bytes_per_user_byte", "ratio", lower, 0},
	{"dfs.local_read_share", "ratio", higher, 0},
	{"dfs.master_egress_mb", "MiB", lower, 0},

	{"sindex.build_ms.strplus", "ms", lower, 0},
	{"sindex.build_ms.grid", "ms", lower, 0},
	{"sindex.build_ms.quadtree", "ms", lower, 0},
	{"sindex.build_ms.hilbert", "ms", lower, 0},
	{"sindex.assign_ns_per_pt", "ns", lower, 0},
	{"sindex.sfilter_probe_ns", "ns", lower, 0},
	{"sindex.sfilter_skip_share", "ratio", higher, 0},
	{"sindex.partition_imbalance", "ratio", lower, 0},

	{"rtree.bulk_us_per_kpt", "us", lower, 0},
	{"rtree.search_us", "us", lower, 0},
	{"rtree.nearest_us", "us", lower, 0},

	{"core.load_points_ms", "ms", lower, 0},
	{"core.load_regions_ms", "ms", lower, 0},
	{"core.open_splits_us", "us", lower, 0},

	{"ops.pin_split_us", "us", lower, 0},
	{"ops.local_range_us", "us", lower, 0},
	{"ops.local_knn_us", "us", lower, 0},
	{"ops.partition_range_us", "us", lower, 0},
	{"ops.partition_knn_us", "us", lower, 0},
	{"ops.job_range_idx_ms", "ms", lower, 0},
	{"ops.job_range_heap_ms", "ms", lower, 0},
	{"ops.job_knn_ms", "ms", lower, 0},
	{"ops.job_join_ms", "ms", lower, 0},
	{"ops.rows_examined_per_result", "ratio", lower, 0},

	{"cg.job_skyline_ms", "ms", lower, 0},
	{"cg.job_hull_ms", "ms", lower, 0},
	{"cg.job_closest_ms", "ms", lower, 0},

	{"mapreduce.map_share", "ratio", lower, 0},
	{"mapreduce.shuffle_share", "ratio", lower, 0},
	{"mapreduce.reduce_share", "ratio", lower, 0},
	{"mapreduce.commit_share", "ratio", lower, 0},
	{"mapreduce.other_share", "ratio", lower, 0},
	{"mapreduce.map_task_p50_us", "us", lower, 0},
	{"mapreduce.map_task_max_over_mean", "ratio", lower, 0},
	{"mapreduce.job_floor_us", "us", lower, 0},
	{"mapreduce.remote_floor_us", "us", lower, 0},
	{"mapreduce.make_splits_us", "us", lower, 0},
	{"mapreduce.shuffle_mb_per_s", "MiB/s", higher, 0},
	{"mapreduce.prune_share", "ratio", higher, 0},
	{"mapreduce.task_retries", "count", lower, 0},
	{"mapreduce.dispatch_local_share", "ratio", higher, 0},
	{"mapreduce.remote_task_share", "ratio", higher, 0},

	{"serve.http_p99_ms", "ms", lower, 0},
	{"serve.handler_us", "us", lower, 0},
	{"serve.socket_share", "ratio", lower, 0},
	{"serve.span_cache_probe_us", "us", lower, 0},
	{"serve.span_exec_us", "us", lower, 0},
	{"serve.span_encode_us", "us", lower, 0},
	{"serve.span_other_us", "us", lower, 0},
	{"serve.memtier_pin_us", "us", lower, 0},
	{"serve.cache_get_ns", "ns", lower, 0},
	{"serve.body_kb_mean", "KiB", lower, 0},
	{"serve.engine_local_share", "ratio", higher, 0},
	{"serve.engine_mapreduce_share", "ratio", lower, 0},
	{"serve.engine_sharded_share", "ratio", higher, 0},
	{"serve.partitions_scanned_per_req", "count", lower, 0},
	{"serve.memtier_hit_share", "ratio", higher, 0},
	{"serve.memtier_evictions", "count", lower, 0},
	{"serve.shard_fanout_per_req", "count", lower, 0},
	{"serve.shard_remote_share", "ratio", higher, 0},
	{"serve.shard_fallback_share", "ratio", lower, 0},
	{"serve.shard_rpc_errors", "count", lower, 0},
	{"serve.shard_frag_p50_us", "us", lower, 0},

	{"worker.exec_range_us", "us", lower, 0},
	{"worker.exec_knn_us", "us", lower, 0},
	{"worker.read_block_mb_per_s", "MiB/s", higher, 0},
	{"worker.rpc_floor_us", "us", lower, 0},
	{"worker.push_mb_per_s", "MiB/s", higher, 0},
	{"worker.register_ms", "ms", lower, 0},
	{"worker.tier_mb", "MiB", lower, 0},

	{"benchmark.trace_overhead_share", "ratio", lower, 0},
}

func specOf(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
