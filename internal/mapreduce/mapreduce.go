// Package mapreduce implements the MapReduce runtime the paper's
// algorithms run on: a master that turns a job into map and reduce tasks,
// a pool of simulated worker nodes, a hash shuffle, combiners, job metrics,
// and a CommitJob hook (used by the Voronoi H-merge step). The spatial
// extensions of SpatialHadoop plug in through the Filter hook, which plays
// the role of the SpatialFileSplitter: it sees the global index of the
// input and decides which splits become map tasks.
//
// Every job run is observed: an obs.Trace records one span per map
// attempt, shuffle, reduce partition and commit, and an obs.Registry
// collects counters, gauges and histograms. Tasks buffer their metrics in
// task-local obs.TaskMetrics and the runtime merges a buffer into the
// registry only when the attempt succeeds, so hot paths take no locks per
// emitted value and retried attempts are never double-counted. The Report
// returned by Run embeds the trace and a metrics snapshot.
package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/sindex"
)

// Split is the unit of work handed to one map task. For heap files a split
// is one block; for spatially indexed files it is one partition (all blocks
// sharing a partition key); operations over pairs of partitions (farthest
// pair) build splits holding two partitions.
type Split struct {
	// Partition is the partition key ("" for heap blocks).
	Partition string
	// MBR is the partition boundary rectangle. For heap files it is the
	// whole-file MBR, which conveys no pruning information — exactly the
	// situation of plain Hadoop.
	MBR geom.Rect
	// ContentMBR is the minimal MBR of the split's records (set by the
	// spatial layer for indexed files; empty otherwise). Dominance filters
	// consult it because minimality guarantees records on every edge.
	ContentMBR geom.Rect
	// Blocks are the data blocks of the split.
	Blocks []*dfs.Block
	// Extra optionally carries a second group of blocks, used by pair
	// splits; nil otherwise.
	Extra []*dfs.Block
	// Tag is operation-specific information attached by a Filter.
	Tag string
}

// Cover returns a rectangle guaranteed to contain every record of the
// split: the partition boundary united with the content MBR. Overlapping
// techniques derive the boundary from the loader's sample, so records
// routed to the partition later may lie outside MBR; pruning filters must
// test Cover. Replication dedup must NOT use it — the reference-point rule
// needs the boundary tiling (MBR) of disjoint techniques.
func (s *Split) Cover() geom.Rect {
	if s.ContentMBR.IsEmpty() {
		return s.MBR
	}
	return s.MBR.Union(s.ContentMBR)
}

// Records returns all records of the primary block group. For single-block
// splits the block's record slice is returned directly (no copy); it must
// not be modified.
func (s *Split) Records() []string {
	if len(s.Blocks) == 1 {
		return s.Blocks[0].Records()
	}
	n := 0
	for _, b := range s.Blocks {
		n += b.NumRecords()
	}
	out := make([]string, 0, n)
	for _, b := range s.Blocks {
		out = append(out, b.Records()...)
	}
	return out
}

// ExtraRecords returns the records of the secondary block group, sharing
// the block's slice for single-block groups like Records.
func (s *Split) ExtraRecords() []string {
	if len(s.Extra) == 1 {
		return s.Extra[0].Records()
	}
	n := 0
	for _, b := range s.Extra {
		n += b.NumRecords()
	}
	out := make([]string, 0, n)
	for _, b := range s.Extra {
		out = append(out, b.Records()...)
	}
	return out
}

// Points returns the records of the primary block group decoded as points,
// served from each block's decode cache: a block is parsed once per file
// lifetime, not once per map attempt, so retried attempts and multi-job
// pipelines (index build → query → query) skip the strconv hot path
// entirely. The returned slice is shared for single-block splits and must
// not be modified.
func (s *Split) Points() ([]geom.Point, error) {
	return blocksPoints(s.Blocks)
}

// ExtraPoints is Points for the secondary block group of pair splits.
func (s *Split) ExtraPoints() ([]geom.Point, error) {
	return blocksPoints(s.Extra)
}

func blocksPoints(blocks []*dfs.Block) ([]geom.Point, error) {
	if len(blocks) == 1 {
		return blocks[0].Points()
	}
	n := 0
	for _, b := range blocks {
		n += b.NumRecords()
	}
	out := make([]geom.Point, 0, n)
	for _, b := range blocks {
		pts, err := b.Points()
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// NumRecords returns the record count across both groups.
func (s *Split) NumRecords() int {
	n := 0
	for _, b := range s.Blocks {
		n += b.NumRecords()
	}
	for _, b := range s.Extra {
		n += b.NumRecords()
	}
	return n
}

// Pair is one intermediate key-value pair.
type Pair struct {
	Key   string
	Value string
}

// TaskContext is passed to map and reduce functions. It provides counters
// and direct final output (the "early flush" channel used by the pruning
// steps of the enhanced algorithms).
type TaskContext struct {
	job     *runningJob
	split   *Split // nil in reduce tasks
	metrics *obs.TaskMetrics
	out     []string
	// shards is the map-side partitioned shuffle output: emitted pairs are
	// bucketed by reducer as they are produced, so the master-side shuffle
	// only concatenates per-reducer runs instead of hashing every pair in
	// one sequential loop.
	shards  [][]Pair
	nshards int
	// attempt is the attempt ordinal running this task (speculative
	// duplicates use the disjoint specAttempt range).
	attempt int
}

// Split returns the split being processed (nil in a reduce task).
func (c *TaskContext) Split() *Split { return c.split }

// Attempt returns the attempt number of the running task: retries of the
// same task count up from 0; speculative duplicates run in a disjoint
// high range (see Speculative).
func (c *TaskContext) Attempt() int { return c.attempt }

// Speculative reports whether this attempt is a speculative duplicate
// launched against a straggling primary attempt.
func (c *TaskContext) Speculative() bool { return c.attempt >= specAttempt }

// Emit produces an intermediate pair for the shuffle, bucketing it into
// the destination reducer's shard at emit time.
func (c *TaskContext) Emit(key, value string) {
	if c.shards == nil {
		if c.nshards < 1 {
			c.nshards = 1
		}
		c.shards = make([][]Pair, c.nshards)
	}
	si := 0
	if c.nshards > 1 {
		si = partitionOf(key, c.nshards)
	}
	c.shards[si] = append(c.shards[si], Pair{Key: key, Value: value})
}

// numEmitted returns the pair count across all shards.
func (c *TaskContext) numEmitted() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh)
	}
	return n
}

// Write writes a record directly to the job output, bypassing the shuffle.
// It implements the early-flush pruning channel: safe Voronoi regions,
// clipped union segments and final skyline points go straight to the output
// file. Writes are buffered per task and committed atomically when the task
// succeeds, so task retries do not duplicate output.
func (c *TaskContext) Write(record string) {
	c.out = append(c.out, record)
}

// Inc adds delta to a named job counter. The increment lands in the task's
// local buffer (no locks) and becomes visible in the job metrics only when
// the attempt succeeds, so retried attempts never double-count.
func (c *TaskContext) Inc(name string, delta int64) {
	if c.metrics != nil {
		c.metrics.Inc(name, delta)
		return
	}
	c.job.reg.Inc(name, delta)
}

// Observe records one observation into a named job histogram, buffered
// like Inc.
func (c *TaskContext) Observe(name string, v float64) {
	if c.metrics != nil {
		c.metrics.Observe(name, v)
		return
	}
	c.job.reg.Observe(name, v)
}

// Config returns the job configuration value for key ("" when absent).
// It models Hadoop's job configuration broadcast: small values (such as the
// serialized global dominance-power set) are shipped to every task.
func (c *TaskContext) Config(key string) string { return c.job.job.Conf[key] }

// MapFunc processes one split. It may Emit intermediate pairs and/or Write
// final output directly.
type MapFunc func(ctx *TaskContext, split *Split) error

// ReduceFunc processes one key group.
type ReduceFunc func(ctx *TaskContext, key string, values []string) error

// FilterFunc selects and shapes the splits that become map tasks. It is
// SpatialHadoop's filter function: it sees partition-level metadata only
// (never records) and prunes partitions that cannot contribute to the
// answer.
type FilterFunc func(splits []*Split) []*Split

// CommitFunc runs once on the master after all reducers finish. It may
// read files and append final output records (the Voronoi H-merge step).
type CommitFunc func(cluster *Cluster, addOutput func(record string)) error

// Job describes one MapReduce job.
type Job struct {
	Name string
	// Kind optionally names a registered job kind (see RegisterKind).
	// Functions are Go closures and cannot ship over RPC, so only jobs
	// carrying a Kind are eligible for remote execution on worker
	// processes: both sides rebuild Map/Combine/Reduce from the kind's
	// builder and Conf. Jobs without a Kind always run in process.
	Kind string
	// Input files (already stored in the cluster's file system).
	Input []string
	// Splits, when non-nil, is used instead of the default one-per-block
	// (or one-per-partition) splits derived from Input. The spatial layer
	// builds splits carrying partition MBRs from the file's global index.
	Splits []*Split
	// Filter optionally prunes/shapes splits (requires indexed input to be
	// useful). Nil means all splits are processed.
	Filter FilterFunc
	// Map is required.
	Map MapFunc
	// Combine optionally pre-aggregates map output per task.
	Combine ReduceFunc
	// Reduce is optional; a map-only job writes only direct output.
	Reduce ReduceFunc
	// NumReducers defaults to 1 (the single-reducer merge bottleneck the
	// paper's enhanced algorithms eliminate).
	NumReducers int
	// Commit optionally post-processes on the master.
	Commit CommitFunc
	// Output is the output file name (required).
	Output string
	// Conf carries broadcast configuration values.
	Conf map[string]string
}

// Counters is a compatibility shim over the job's obs.Registry, retained
// for callers written against the original flat counter map. Increments
// take the registry mutex (they are mutex-based, not atomics), which is
// why the runtime's hot paths use per-task obs.TaskMetrics buffers merged
// once per task instead of this type.
type Counters struct {
	reg *obs.Registry
}

// Inc adds delta to counter name.
func (c *Counters) Inc(name string, delta int64) { c.reg.Inc(name, delta) }

// Get returns the value of counter name.
func (c *Counters) Get(name string) int64 { return c.reg.Counter(name) }

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 { return c.reg.Snapshot().Counters }

// Standard counter names maintained by the runtime.
const (
	CounterSplitsTotal    = "splits.total"
	CounterSplitsFiltered = "splits.filtered"
	CounterSplitsMapped   = "splits.mapped"
	CounterMapRecordsIn   = "map.records.in"
	CounterMapRecordsOut  = "map.records.out"
	CounterShuffleBytes   = "shuffle.bytes"
	CounterShufflePairs   = "shuffle.pairs"
	CounterReduceGroups   = "reduce.groups"
	CounterOutputRecords  = "output.records"
	CounterTaskRetries    = "task.retries"
)

// Fault-tolerance counter names maintained by the scheduler. They feed
// the fault table of Report.WriteSummary and the chaos soak assertions.
const (
	// CounterRetryMap/Reduce/Commit break CounterTaskRetries down by phase.
	CounterRetryMap    = "fault.retry.map"
	CounterRetryReduce = "fault.retry.reduce"
	CounterRetryCommit = "fault.retry.commit"
	// CounterSpecLaunched counts speculative duplicate attempts launched
	// against stragglers; CounterSpecWon counts duplicates that finished
	// first; CounterSpecSuppressed counts attempts (either side) whose
	// output was discarded because the other attempt had already won.
	CounterSpecLaunched   = "fault.spec.launched"
	CounterSpecWon        = "fault.spec.won"
	CounterSpecSuppressed = "fault.spec.suppressed"
	// CounterStragglersInjected counts attempts the injector delayed.
	CounterStragglersInjected = "fault.stragglers.injected"
	// CounterDeadlineExceeded counts attempts abandoned at the per-task
	// deadline.
	CounterDeadlineExceeded = "fault.deadline.exceeded"
	// CounterChecksumFailures counts block reads that surfaced a checksum
	// mismatch (real or injected).
	CounterChecksumFailures = "fault.checksum.failures"
)

// Gauge names maintained by the runtime.
const (
	// GaugeFilterPruneRatio is the fraction of splits the filter function
	// pruned (0 when the job had no filter or no splits).
	GaugeFilterPruneRatio = "filter.prune.ratio"
)

// Histogram names maintained by the runtime.
const (
	HistMapTaskDurationUS    = "map.task.duration_us"
	HistMapTaskRecordsIn     = "map.task.records_in"
	HistMapTaskShuffleBytes  = "map.task.shuffle_bytes"
	HistReduceTaskDurationUS = "reduce.task.duration_us"
	HistReducePartRecords    = "reduce.partition.records"
)

// Report summarizes one finished job.
type Report struct {
	Job         string
	Splits      int // splits after filtering
	SplitsTotal int // splits before filtering
	MapTasks    int
	ReduceTasks int
	Counters    map[string]int64
	MapTime     time.Duration
	ShuffleTime time.Duration
	ReduceTime  time.Duration
	CommitTime  time.Duration
	Total       time.Duration
	OutputFile  string
	OutputCount int64
	WorkersUsed int

	// MapWorkSum/MapTaskMax aggregate the CPU time of the individual map
	// tasks (successful attempts only); ReduceWorkSum/ReduceTaskMax do the
	// same for reduce tasks. They feed SimulatedParallel.
	MapWorkSum    time.Duration
	MapTaskMax    time.Duration
	ReduceWorkSum time.Duration
	ReduceTaskMax time.Duration

	// Metrics is the job's full metrics snapshot (Counters above is its
	// counter section, kept for compatibility).
	Metrics *obs.Snapshot
	// Trace is the job's span log: one span per map attempt, shuffle,
	// reduce partition and commit, under a single job root span.
	Trace *obs.Trace
}

// SimulatedParallel estimates the job's makespan on a cluster with the
// given number of worker machines using the standard LPT bound per phase:
// max(total work / workers, longest task). It lets a run on a small host
// report what the paper's 25-node deployment would observe, modulo network
// costs (which this runtime does not charge).
func (r *Report) SimulatedParallel(workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	phase := func(sum, max time.Duration) time.Duration {
		ideal := sum / time.Duration(workers)
		if max > ideal {
			return max
		}
		return ideal
	}
	return phase(r.MapWorkSum, r.MapTaskMax) +
		r.ShuffleTime +
		phase(r.ReduceWorkSum, r.ReduceTaskMax) +
		r.CommitTime
}

// Cluster is the compute side: a file system plus a pool of worker slots.
// One Cluster models the paper's 25-machine deployment; a Cluster with one
// worker is the "single machine" configuration.
type Cluster struct {
	fs      *dfs.FileSystem
	workers int
	// slots is the cluster-wide worker slot pool shared by every
	// concurrently running job: all map, reduce and speculative attempts
	// acquire from it, so N racing RunCtx calls share one cap instead of
	// oversubscribing the cluster N-fold.
	slots *SlotPool

	mu       sync.Mutex
	injector *fault.Injector
	policy   fault.RetryPolicy
	admit    *admission
	// master is the distributed runtime's coordinator, nil in the default
	// fully in-process configuration (see StartMaster).
	master *Master
}

// NewCluster creates a cluster over fs with the given number of worker
// slots. The worker count is the modelled cluster size: it bounds the
// total task parallelism across all concurrent jobs (through the shared
// SlotPool), and it feeds reducer counts and SimulatedParallel.
func NewCluster(fs *dfs.FileSystem, workers int) *Cluster {
	if workers <= 0 {
		workers = 1
	}
	return &Cluster{
		fs:      fs,
		workers: workers,
		slots:   NewSlotPool(workers),
		policy:  fault.DefaultRetryPolicy(),
	}
}

// Slots returns the cluster's shared worker slot pool.
func (c *Cluster) Slots() *SlotPool { return c.slots }

// execSlots returns the cap on concurrently executing tasks — the shared
// pool's capacity.
func (c *Cluster) execSlots() int {
	return c.slots.Cap()
}

// FS returns the cluster's file system.
func (c *Cluster) FS() *dfs.FileSystem { return c.fs }

// Workers returns the number of worker slots.
func (c *Cluster) Workers() int { return c.workers }

// SetFault installs a seeded fault plan driving the injector for all
// subsequent jobs. A disabled (zero) plan clears injection. The injector
// is replaced wholesale, resetting its event log and legacy counter.
func (c *Cluster) SetFault(p fault.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !p.Enabled() {
		c.injector = nil
		return
	}
	c.injector = fault.NewInjector(p)
}

// Injector returns the cluster's current fault injector (nil when no
// plan is installed).
func (c *Cluster) Injector() *fault.Injector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injector
}

// SetRetryPolicy replaces the scheduler's retry policy for subsequent
// jobs.
func (c *Cluster) SetRetryPolicy(p fault.RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// RetryPolicy returns the scheduler's current retry policy.
func (c *Cluster) RetryPolicy() fault.RetryPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

type runningJob struct {
	job   *Job
	reg   *obs.Registry
	trace *obs.Trace
	// nshards is the effective reducer count; map tasks bucket their
	// emitted pairs into this many shards.
	nshards int
}

// Run executes the job and returns its report.
func (c *Cluster) Run(job *Job) (*Report, error) {
	return c.RunCtx(context.Background(), job)
}

// RunCtx executes the job under a context: cancelling it stops new
// attempts (tasks in flight finish their current attempt). When an
// admission controller is installed (SetAdmission), the job first passes
// admission: it may queue behind other jobs, be rejected with
// ErrOverloaded when the queue is full, or run under the configured
// per-job deadline.
func (c *Cluster) RunCtx(ctx context.Context, job *Job) (*Report, error) {
	if a := c.admission(); a != nil {
		// queue.wait covers the admission gate: on a loaded cluster this is
		// where a request trace shows the job sitting behind other jobs.
		_, qs := obs.StartSpan(ctx, "queue.wait")
		release, err := a.enter(ctx)
		qs.End()
		if err != nil {
			return nil, err
		}
		defer release()
		if a.cfg.JobDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, a.cfg.JobDeadline)
			defer cancel()
		}
	}
	return c.runJob(ctx, job)
}

// runJob executes one admitted job.
func (c *Cluster) runJob(ctx context.Context, job *Job) (*Report, error) {
	if job.Map == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no map function", job.Name)
	}
	if job.Output == "" {
		return nil, fmt.Errorf("mapreduce: job %q has no output file", job.Name)
	}
	start := time.Now()
	numRed := job.NumReducers
	if numRed <= 0 {
		numRed = 1
	}
	rj := &runningJob{job: job, reg: obs.NewRegistry(), trace: obs.NewTrace(job.Name), nshards: numRed}
	// When the context carries a request trace (serving path), mirror the
	// job into it: a "job" span parents per-phase spans, which in turn
	// parent the scheduler's slot.wait spans. Batch callers carry no trace
	// and all of these are free no-ops.
	ctx, jspan := obs.StartSpan(ctx, "job")
	jspan.SetAttr("name", job.Name)
	defer jspan.End()
	root := rj.trace.Start(job.Name, obs.PhaseJob, 0, -1)
	// fail finishes the root span on every error path so traces never
	// leak open spans.
	fail := func(err error) (*Report, error) {
		root.Finish(obs.OutcomeFailed)
		return nil, err
	}
	pol := c.RetryPolicy()

	splits := job.Splits
	if splits == nil {
		var err error
		splits, err = c.MakeSplits(job.Input)
		if err != nil {
			return fail(err)
		}
	}
	total := len(splits)
	rj.reg.Inc(CounterSplitsTotal, int64(total))
	if job.Filter != nil {
		fspan := rj.trace.Start("filter", obs.PhaseFilter, root.ID, -1)
		fspan.RecordsIn = int64(total)
		_, frs := obs.StartSpan(ctx, "phase.filter")
		splits = job.Filter(splits)
		frs.SetAttr("splits_in", fmt.Sprint(total))
		frs.SetAttr("splits_out", fmt.Sprint(len(splits)))
		frs.End()
		fspan.RecordsOut = int64(len(splits))
		fspan.Finish(obs.OutcomeOK)
		rj.reg.Inc(CounterSplitsFiltered, int64(total-len(splits)))
	}
	rj.reg.Inc(CounterSplitsMapped, int64(len(splits)))
	if total > 0 {
		rj.reg.SetGauge(GaugeFilterPruneRatio, float64(total-len(splits))/float64(total))
	}

	// When a master runtime is up with live workers and the job carries a
	// registered kind, tasks execute on remote worker processes; rem stays
	// nil otherwise and everything below runs in process as before.
	rem := c.startRemote(rj, job, splits, numRed, root.ID)
	if rem != nil {
		defer rem.close()
	}

	// ---- Map phase ----
	mapStart := time.Now()
	mapCtx, mapSpan := obs.StartSpan(ctx, "phase.map")
	mapSpan.SetAttr("tasks", fmt.Sprint(len(splits)))
	type mapResult struct {
		// shards holds the task's emitted pairs pre-bucketed by reducer.
		shards [][]Pair
		out    []string
		// pairs/bytes are the task's shuffle totals, computed once here and
		// reused by both the task counters and the shuffle span, so the two
		// never disagree.
		pairs int64
		bytes int64
		dur   time.Duration
	}
	results := make([]mapResult, len(splits))
	ms := newSched(c, rj, obs.PhaseMap, root.ID, pol, CounterRetryMap)
	for i := range splits {
		i, split := i, splits[i]
		var blk *dfs.Block
		if len(split.Blocks) > 0 {
			blk = split.Blocks[0]
		}
		ms.addTask(i, fmt.Sprintf("map-%d", i), split.Partition, blk, func(attempt int) (attemptOut, error) {
			if rem != nil {
				res, err := rem.mapAttempt(split, i, attempt)
				if err != nil {
					return attemptOut{}, err
				}
				// Mirror the in-process bookkeeping onto the shipped metrics
				// buffer so counters and histograms are identical either way.
				tm := res.tm
				tm.Inc(CounterShuffleBytes, res.bytes)
				tm.Inc(CounterShufflePairs, res.pairs)
				tm.Observe(HistMapTaskRecordsIn, float64(res.recordsIn))
				tm.Observe(HistMapTaskShuffleBytes, float64(res.bytes))
				return attemptOut{
					recordsIn:  res.recordsIn,
					recordsOut: res.pairs + int64(len(res.out)),
					bytes:      res.bytes,
					apply: func(dur time.Duration) {
						tm.Observe(HistMapTaskDurationUS, float64(dur.Microseconds()))
						rj.reg.Merge(tm)
						// Publishing the shard location under the win gate
						// guarantees reducers fetch exactly one attempt's
						// shards, whichever attempt won.
						res.publish()
						results[i] = mapResult{out: res.out, pairs: res.pairs, bytes: res.bytes, dur: dur}
					},
				}, nil
			}
			shards, out, tm, err := runMapAttempt(rj, split, attempt)
			if err != nil {
				// The attempt's metric buffer is dropped with the attempt.
				return attemptOut{}, err
			}
			// Shuffle totals are summed here, once per successful task,
			// instead of under a registry mutex per pair.
			var pairs, bytes int64
			for _, shard := range shards {
				pairs += int64(len(shard))
				for _, p := range shard {
					bytes += int64(len(p.Key) + len(p.Value))
				}
			}
			tm.Inc(CounterShuffleBytes, bytes)
			tm.Inc(CounterShufflePairs, pairs)
			tm.Observe(HistMapTaskRecordsIn, float64(split.NumRecords()))
			tm.Observe(HistMapTaskShuffleBytes, float64(bytes))
			return attemptOut{
				recordsIn:  int64(split.NumRecords()),
				recordsOut: pairs + int64(len(out)),
				bytes:      bytes,
				apply: func(dur time.Duration) {
					tm.Observe(HistMapTaskDurationUS, float64(dur.Microseconds()))
					rj.reg.Merge(tm)
					results[i] = mapResult{shards: shards, out: out, pairs: pairs, bytes: bytes, dur: dur}
				},
			}, nil
		})
	}
	mapErrs := ms.runAll(mapCtx)
	mapSpan.End()
	for _, e := range mapErrs {
		if e != nil {
			return fail(fmt.Errorf("mapreduce: job %q map failed: %w", job.Name, e))
		}
	}
	mapTime := time.Since(mapStart)
	var mapWorkSum, mapTaskMax time.Duration
	for _, r := range results {
		mapWorkSum += r.dur
		if r.dur > mapTaskMax {
			mapTaskMax = r.dur
		}
	}

	// ---- Shuffle ----
	// Map tasks already bucketed their pairs by reducer, so the merge is
	// embarrassingly parallel: one goroutine per reducer concatenates that
	// reducer's shard from every task, in task order (which keeps the
	// grouped value order identical to the old sequential loop). The totals
	// come from the per-task sums recorded in the map phase — the same
	// numbers already merged into the task counters — rather than a second
	// walk over every pair.
	shuffleStart := time.Now()
	_, shReq := obs.StartSpan(ctx, "phase.shuffle")
	shSpan := rj.trace.Start("shuffle", obs.PhaseShuffle, root.ID, -1)
	groups := make([]map[string][]string, numRed)
	var swg sync.WaitGroup
	if rem == nil {
		for ri := 0; ri < numRed; ri++ {
			swg.Add(1)
			go func(ri int) {
				defer swg.Done()
				// Merge work is bounded and must complete even when ctx is
				// cancelled (the job fails later with complete state), so the
				// acquire does not take the job context.
				_ = c.slots.Acquire(context.Background())
				defer c.slots.Release()
				g := make(map[string][]string)
				for _, r := range results {
					if ri >= len(r.shards) {
						continue // task emitted nothing
					}
					for _, p := range r.shards[ri] {
						g[p.Key] = append(g[p.Key], p.Value)
					}
				}
				groups[ri] = g
			}(ri)
		}
	}
	// Under remote execution the map shards never pass through the master:
	// they sit spilled on the workers (or in the master shard store) and
	// each reducer fetches its shard directly from every holder. The
	// shuffle span still records the job-wide totals.
	var directOut []string
	var shufflePairs, shuffleBytes int64
	for _, r := range results {
		directOut = append(directOut, r.out...)
		shufflePairs += r.pairs
		shuffleBytes += r.bytes
	}
	swg.Wait()
	shSpan.RecordsIn = shufflePairs
	shSpan.Bytes = shuffleBytes
	shSpan.Finish(obs.OutcomeOK)
	shReq.SetAttr("bytes", fmt.Sprint(shuffleBytes))
	shReq.End()
	shuffleTime := time.Since(shuffleStart)

	// ---- Reduce phase ----
	reduceStart := time.Now()
	reduceOut := make([][]string, numRed)
	reduceDur := make([]time.Duration, numRed)
	if job.Reduce != nil {
		redCtx, redSpan := obs.StartSpan(ctx, "phase.reduce")
		redSpan.SetAttr("tasks", fmt.Sprint(numRed))
		rs := newSched(c, rj, obs.PhaseReduce, root.ID, pol, CounterRetryReduce)
		for ri := 0; ri < numRed; ri++ {
			ri := ri
			rs.addTask(ri, fmt.Sprintf("reduce-%d", ri), "", nil, func(attempt int) (attemptOut, error) {
				var out []string
				var valuesIn int64
				var tm *obs.TaskMetrics
				var err error
				if rem != nil {
					var res remoteReduceResult
					res, err = rem.reduceAttempt(ri, attempt)
					out, valuesIn, tm = res.out, res.recordsIn, res.tm
				} else {
					out, valuesIn, tm, err = runReduceAttempt(rj, groups[ri], attempt)
				}
				if err != nil {
					return attemptOut{}, err
				}
				return attemptOut{
					recordsIn:  valuesIn,
					recordsOut: int64(len(out)),
					apply: func(dur time.Duration) {
						tm.Observe(HistReduceTaskDurationUS, float64(dur.Microseconds()))
						rj.reg.Merge(tm)
						reduceOut[ri] = out
						reduceDur[ri] = dur
					},
				}, nil
			})
		}
		redErrs := rs.runAll(redCtx)
		redSpan.End()
		for _, e := range redErrs {
			if e != nil {
				return fail(fmt.Errorf("mapreduce: job %q reduce failed: %w", job.Name, e))
			}
		}
	}
	reduceTime := time.Since(reduceStart)
	var reduceWorkSum, reduceTaskMax time.Duration
	for _, d := range reduceDur {
		reduceWorkSum += d
		if d > reduceTaskMax {
			reduceTaskMax = d
		}
	}

	// ---- Output + commit ----
	// The commit step (final output write plus the job's Commit hook) runs
	// under the same retry policy as tasks. Every attempt rewrites the
	// output file from scratch (CreateOrReplace truncates), so a retried
	// commit never duplicates records, and every attempt's span is
	// finished on every path — success, retry and failure alike.
	commitStart := time.Now()
	_, commitReq := obs.StartSpan(ctx, "phase.commit")
	var outCount int64
	injector := c.Injector()
	var commitErr error
	for attempt := 0; ; attempt++ {
		cSpan := rj.trace.Start("commit", obs.PhaseCommit, root.ID, -1)
		cSpan.Attempt = attempt
		outCount = 0
		err := c.attemptCommit(injector, job, directOut, reduceOut, attempt, &outCount)
		if err == nil {
			cSpan.RecordsOut = outCount
			cSpan.Finish(obs.OutcomeOK)
			break
		}
		if pol.ShouldRetry(err, attempt) && ctx.Err() == nil {
			cSpan.Finish(obs.OutcomeRetry)
			rj.reg.Inc(CounterTaskRetries, 1)
			rj.reg.Inc(CounterRetryCommit, 1)
			var seed int64
			if injector != nil {
				seed = injector.Plan().Seed
			}
			if d := pol.Backoff(seed, obs.PhaseCommit, 0, attempt); d > 0 {
				time.Sleep(d)
			}
			continue
		}
		cSpan.Finish(obs.OutcomeFailed)
		commitErr = err
		break
	}
	commitReq.End()
	if commitErr != nil {
		return fail(fmt.Errorf("mapreduce: job %q commit failed: %w", job.Name, commitErr))
	}
	rj.reg.Inc(CounterOutputRecords, outCount)
	commitTime := time.Since(commitStart)
	root.RecordsOut = outCount
	root.Finish(obs.OutcomeOK)

	snap := rj.reg.Snapshot()
	return &Report{
		Job:         job.Name,
		Splits:      len(splits),
		SplitsTotal: total,
		MapTasks:    len(splits),
		ReduceTasks: numRed,
		Counters:    snap.Counters,
		MapTime:     mapTime,
		ShuffleTime: shuffleTime,
		ReduceTime:  reduceTime,
		CommitTime:  commitTime,
		Total:       time.Since(start),
		OutputFile:  job.Output,
		OutputCount: outCount,
		WorkersUsed: c.workers,

		MapWorkSum:    mapWorkSum,
		MapTaskMax:    mapTaskMax,
		ReduceWorkSum: reduceWorkSum,
		ReduceTaskMax: reduceTaskMax,

		Metrics: snap,
		Trace:   rj.trace,
	}, nil
}

// attemptCommit runs one attempt of the commit step: it (re)creates the
// output file, writes the buffered map/reduce output and runs the job's
// Commit hook. The injector may fail the attempt before any write.
func (c *Cluster) attemptCommit(in *fault.Injector, job *Job, directOut []string, reduceOut [][]string, attempt int, outCount *int64) error {
	if in != nil {
		switch in.Decide(fault.PhaseCommit, 0, attempt).Kind {
		case fault.KindTransient:
			return &fault.InjectedError{Phase: fault.PhaseCommit, Task: 0, Attempt: attempt}
		case fault.KindPermanent:
			return &fault.InjectedError{Phase: fault.PhaseCommit, Task: 0, Attempt: attempt, Permanent: true}
		}
	}
	w, err := c.fs.CreateOrReplace(job.Output)
	if err != nil {
		return err
	}
	writeRec := func(rec string) {
		w.WriteRecord(rec)
		*outCount++
	}
	for _, rec := range directOut {
		writeRec(rec)
	}
	for _, part := range reduceOut {
		for _, rec := range part {
			writeRec(rec)
		}
	}
	if job.Commit != nil {
		if err := job.Commit(c, writeRec); err != nil {
			return err
		}
	}
	return w.Close()
}

// runMapAttempt executes one map attempt, applying the combiner to its
// output, and returns the task's emitted pairs bucketed by reducer shard.
// The attempt's metrics stay in the returned TaskMetrics buffer; the
// caller merges it into the job registry only on success, so a failed
// attempt's counts (including the combiner re-run) are discarded with it.
// Block checksums are verified before any record is decoded; a mismatch
// fails the attempt with the retryable dfs checksum error. It is a free
// function of the runningJob (not a Cluster method) because remote
// workers run it too, against a runningJob rebuilt from the job kind.
func runMapAttempt(rj *runningJob, split *Split, attempt int) ([][]Pair, []string, *obs.TaskMetrics, error) {
	for _, group := range [][]*dfs.Block{split.Blocks, split.Extra} {
		for _, b := range group {
			if err := b.VerifyCached(); err != nil {
				rj.reg.Inc(CounterChecksumFailures, 1)
				return nil, nil, nil, err
			}
		}
	}
	tm := obs.NewTaskMetrics()
	ctx := &TaskContext{job: rj, split: split, metrics: tm, nshards: rj.nshards, attempt: attempt}
	tm.Inc(CounterMapRecordsIn, int64(split.NumRecords()))
	if err := rj.job.Map(ctx, split); err != nil {
		return nil, nil, nil, err
	}
	shards := ctx.shards
	if rj.job.Combine != nil && ctx.numEmitted() > 0 {
		// Combine shard by shard: all occurrences of a key live in one
		// shard, so per-shard grouping sees every value of the key, and the
		// combiner's own emits re-bucket to the same shard.
		cctx := &TaskContext{job: rj, split: split, metrics: tm, nshards: rj.nshards, attempt: attempt}
		for _, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			grouped := make(map[string][]string)
			order := make([]string, 0)
			for _, p := range shard {
				if _, ok := grouped[p.Key]; !ok {
					order = append(order, p.Key)
				}
				grouped[p.Key] = append(grouped[p.Key], p.Value)
			}
			for _, k := range order {
				if err := rj.job.Combine(cctx, k, grouped[k]); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		// Direct writes from the combiner join the map task's output.
		ctx.out = append(ctx.out, cctx.out...)
		shards = cctx.shards
	}
	emitted := 0
	for _, shard := range shards {
		emitted += len(shard)
	}
	tm.Inc(CounterMapRecordsOut, int64(emitted))
	return shards, ctx.out, tm, nil
}

// partitionOf hashes a key to a reducer index with an inlined FNV-1a loop.
// The stdlib hash/fnv equivalent allocates a fresh hasher per call, which
// showed up as the top allocation site of shuffle-heavy jobs; the inline
// loop produces bit-identical hashes (pinned by TestPartitionOfStability)
// with zero allocations.
func partitionOf(key string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// MakeSplits builds the default (unfiltered) splits for the input files:
// one split per partition for indexed files, one split per block for heap
// files. When a file carries a master index attachment, each partition
// split gets the real cell boundary and content MBR from the global index,
// so filter functions can prune even on the default split path.
func (c *Cluster) MakeSplits(inputs []string) ([]*Split, error) {
	var splits []*Split
	for _, name := range inputs {
		f, err := c.fs.Open(name)
		if err != nil {
			return nil, err
		}
		var gi *sindex.GlobalIndex
		if len(f.Master) > 0 {
			if g, derr := sindex.Decode(f.Master); derr == nil {
				gi = g
			}
		}
		byPart := make(map[string][]*dfs.Block)
		var order []string
		for _, b := range f.Blocks {
			if _, ok := byPart[b.Partition]; !ok {
				order = append(order, b.Partition)
			}
			byPart[b.Partition] = append(byPart[b.Partition], b)
		}
		if len(order) == 1 && order[0] == "" {
			// Heap file: one split per block.
			for _, b := range f.Blocks {
				splits = append(splits, &Split{MBR: geom.WorldRect(), Blocks: []*dfs.Block{b}})
			}
			continue
		}
		for _, key := range order {
			s := &Split{Partition: key, MBR: geom.WorldRect(), Blocks: byPart[key]}
			if gi != nil {
				if cell, ok := gi.CellByKey(key); ok {
					s.MBR = cell.Boundary
					s.ContentMBR = cell.Content
				}
			}
			splits = append(splits, s)
		}
	}
	return splits, nil
}
