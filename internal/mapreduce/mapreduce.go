// Package mapreduce implements the MapReduce runtime the paper's
// algorithms run on: a master that turns a job into map and reduce tasks,
// a pool of simulated worker nodes, a hash shuffle, combiners and job
// metrics. The spatial extensions of SpatialHadoop plug in through the
// Filter hook, which plays the role of the SpatialFileSplitter: it sees
// the global index of the input and decides which splits become map tasks.
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
	"errors"
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
	conf    map[string]string
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
func (c *TaskContext) Inc(name string, delta int64) { c.metrics.Inc(name, delta) }

// Observe records one observation into a named job histogram, buffered
// like Inc.
func (c *TaskContext) Observe(name string, v float64) { c.metrics.Observe(name, v) }

// Config returns the job configuration value for key ("" when absent).
// It models Hadoop's job configuration broadcast: small values (such as the
// serialized global dominance-power set) are shipped to every task.
func (c *TaskContext) Config(key string) string { return c.conf[key] }

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

// Job describes one MapReduce job: a registered kind plus its
// configuration. It carries no task code — whoever executes an attempt,
// this process or a worker, builds the kind's functions from Kind and Conf.
type Job struct {
	Name string
	// Kind names the registered job kind (see RegisterKind) whose map,
	// combine and reduce functions the job runs. Required.
	Kind string
	// Input files (already stored in the cluster's file system).
	Input []string
	// Splits, when non-nil, is used instead of the default one-per-block
	// (or one-per-partition) splits derived from Input. The spatial layer
	// builds splits carrying partition MBRs from the file's global index.
	Splits []*Split
	// Filter optionally prunes/shapes splits (requires indexed input to be
	// useful). Nil means all splits are processed. It is planning, not task
	// code: it runs on the master only.
	Filter FilterFunc
	// NumReducers defaults to 1 (the single-reducer merge bottleneck the
	// paper's enhanced algorithms eliminate).
	NumReducers int
	// Output is the output file name (required).
	Output string
	// Conf carries broadcast configuration values: the only state, besides
	// the split, a task sees.
	Conf map[string]string
}

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
	job *Job
	// kf is the job kind's functions, built once at Run.
	kf    KindFuncs
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
	// A kind nobody registered (or whose conf does not parse) fails here,
	// before the job queues for admission.
	kf, err := BuildKind(job.Kind, job.Conf)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	if kf.Map == nil {
		return nil, fmt.Errorf("mapreduce: job %q: kind %q has no map function", job.Name, job.Kind)
	}
	if job.Output == "" {
		return nil, fmt.Errorf("mapreduce: job %q has no output file", job.Name)
	}
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
	return c.runJob(ctx, job, kf)
}

// jobRun is the state one admitted job threads through its phases: plan
// → map → shuffle → reduce → commit. Every phase asks the runner (the
// attempt seam) to execute attempts and does the bookkeeping itself, so
// counters, histograms and spans are written once for both runners.
type jobRun struct {
	c    *Cluster
	rj   *runningJob
	pol  fault.RetryPolicy
	root *obs.Span
	run  runner

	splits []*Split
	total  int // splits before filtering

	// maps holds each map task's winning attempt as the later phases need
	// it: direct output, shuffle totals, duration.
	maps      []mapResult
	reduceOut [][]string
	reduceDur []time.Duration
	outCount  int64
}

type mapResult struct {
	out []string
	// pairs/bytes are the task's shuffle totals, computed once per attempt
	// and reused by both the task counters and the shuffle span, so the two
	// never disagree.
	pairs int64
	bytes int64
	dur   time.Duration
}

// runJob executes one admitted job: it drives the phases and assembles
// the report.
func (c *Cluster) runJob(ctx context.Context, job *Job, kf KindFuncs) (*Report, error) {
	start := time.Now()
	numRed := job.NumReducers
	if numRed <= 0 {
		numRed = 1
	}
	rj := &runningJob{job: job, kf: kf, reg: obs.NewRegistry(), trace: obs.NewTrace(job.Name), nshards: numRed}
	// When the context carries a request trace (serving path), mirror the
	// job into it: a "job" span parents per-phase spans, which in turn
	// parent the scheduler's slot.wait spans. Batch callers carry no trace
	// and all of these are free no-ops.
	ctx, jspan := obs.StartSpan(ctx, "job")
	jspan.SetAttr("name", job.Name)
	defer jspan.End()
	j := &jobRun{c: c, rj: rj, pol: c.RetryPolicy()}
	j.root = rj.trace.Start(job.Name, obs.PhaseJob, 0, -1)
	rep := &Report{Job: job.Name, ReduceTasks: numRed, OutputFile: job.Output, WorkersUsed: c.workers, Trace: rj.trace}
	if err := j.phases(ctx, rep); err != nil {
		// The root span is finished on every error path so traces never
		// leak open spans.
		j.root.Finish(obs.OutcomeFailed)
		return nil, err
	}
	j.root.RecordsOut = j.outCount
	j.root.Finish(obs.OutcomeOK)

	rep.Splits, rep.SplitsTotal, rep.MapTasks = len(j.splits), j.total, len(j.splits)
	rep.OutputCount = j.outCount
	for _, r := range j.maps {
		rep.MapWorkSum += r.dur
		rep.MapTaskMax = max(rep.MapTaskMax, r.dur)
	}
	for _, d := range j.reduceDur {
		rep.ReduceWorkSum += d
		rep.ReduceTaskMax = max(rep.ReduceTaskMax, d)
	}
	rep.Metrics = rj.reg.Snapshot()
	rep.Counters = rep.Metrics.Counters
	rep.Total = time.Since(start)
	return rep, nil
}

// phases plans the job, picks its runner and runs the four timed phases
// in order, stopping at the first that fails.
func (j *jobRun) phases(ctx context.Context, rep *Report) error {
	if err := j.plan(ctx); err != nil {
		return err
	}
	j.run = j.c.newRunner(ctx, j.rj, j.splits, j.root.ID)
	defer j.run.close()
	for _, ph := range []struct {
		wall *time.Duration
		run  func(context.Context) error
	}{
		{&rep.MapTime, j.mapPhase},
		{&rep.ShuffleTime, j.shufflePhase},
		{&rep.ReduceTime, j.reducePhase},
		{&rep.CommitTime, j.commitPhase},
	} {
		start := time.Now()
		if err := ph.run(ctx); err != nil {
			return err
		}
		*ph.wall = time.Since(start)
	}
	return nil
}

// plan derives the job's splits and runs its filter function — the
// SpatialFileSplitter step.
func (j *jobRun) plan(ctx context.Context) error {
	job, reg := j.rj.job, j.rj.reg
	splits := job.Splits
	if splits == nil {
		var err error
		if splits, err = j.c.MakeSplits(job.Input); err != nil {
			return err
		}
	}
	j.total = len(splits)
	reg.Inc(CounterSplitsTotal, int64(j.total))
	if job.Filter != nil {
		fspan := j.rj.trace.Start("filter", obs.PhaseFilter, j.root.ID, -1)
		fspan.RecordsIn = int64(j.total)
		_, frs := obs.StartSpan(ctx, "phase.filter")
		splits = job.Filter(splits)
		frs.SetAttr("splits_in", fmt.Sprint(j.total))
		frs.SetAttr("splits_out", fmt.Sprint(len(splits)))
		frs.End()
		fspan.RecordsOut = int64(len(splits))
		fspan.Finish(obs.OutcomeOK)
		reg.Inc(CounterSplitsFiltered, int64(j.total-len(splits)))
	}
	reg.Inc(CounterSplitsMapped, int64(len(splits)))
	if j.total > 0 {
		reg.SetGauge(GaugeFilterPruneRatio, float64(j.total-len(splits))/float64(j.total))
	}
	j.splits = splits
	return nil
}

// mapPhase runs one scheduled task per split. The attempt bookkeeping —
// shuffle counters, per-task histograms, the win-gated publish — lives
// here, once, whichever runner executed the attempt.
func (j *jobRun) mapPhase(ctx context.Context) error {
	rj := j.rj
	mapCtx, mapSpan := obs.StartSpan(ctx, "phase.map")
	mapSpan.SetAttr("tasks", fmt.Sprint(len(j.splits)))
	j.maps = make([]mapResult, len(j.splits))
	ms := newSched(j.c, rj, obs.PhaseMap, j.root.ID, j.pol, CounterRetryMap)
	for i, split := range j.splits {
		var blk *dfs.Block
		if len(split.Blocks) > 0 {
			blk = split.Blocks[0]
		}
		ms.addTask(i, fmt.Sprintf("map-%d", i), split.Partition, blk, func(attempt int) (attemptOut, error) {
			res, err := j.run.mapAttempt(i, attempt)
			if err != nil {
				// The attempt's metric buffer is dropped with the attempt.
				return attemptOut{}, err
			}
			// Shuffle totals are counted here, once per successful task,
			// instead of under a registry mutex per pair.
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
					// Publishing the shards under the win gate guarantees
					// reducers read exactly one attempt's shards, whichever
					// attempt won.
					res.publish()
					j.maps[i] = mapResult{out: res.out, pairs: res.pairs, bytes: res.bytes, dur: dur}
				},
			}, nil
		})
	}
	errs := ms.runAll(mapCtx)
	mapSpan.End()
	return firstErr(errs, rj.job.Name, "map")
}

// firstErr wraps a phase's first task error (nil when every task won).
func firstErr(errs []error, job, phase string) error {
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("mapreduce: job %q %s failed: %w", job, phase, e)
		}
	}
	return nil
}

// shufflePhase makes the winning map shards reachable by the reducers
// (the runner's business) and records the job-wide shuffle totals — the
// per-task sums already merged into the task counters, not a second walk
// over every pair.
func (j *jobRun) shufflePhase(ctx context.Context) error {
	_, shReq := obs.StartSpan(ctx, "phase.shuffle")
	shSpan := j.rj.trace.Start("shuffle", obs.PhaseShuffle, j.root.ID, -1)
	j.run.shuffle()
	for _, r := range j.maps {
		shSpan.RecordsIn += r.pairs
		shSpan.Bytes += r.bytes
	}
	shSpan.Finish(obs.OutcomeOK)
	shReq.SetAttr("bytes", fmt.Sprint(shSpan.Bytes))
	shReq.End()
	return nil
}

// reducePhase runs one scheduled task per reducer (none for a map-only
// job).
func (j *jobRun) reducePhase(ctx context.Context) error {
	rj, numRed := j.rj, j.rj.nshards
	j.reduceOut = make([][]string, numRed)
	j.reduceDur = make([]time.Duration, numRed)
	if rj.kf.Reduce == nil {
		return nil
	}
	redCtx, redSpan := obs.StartSpan(ctx, "phase.reduce")
	redSpan.SetAttr("tasks", fmt.Sprint(numRed))
	rs := newSched(j.c, rj, obs.PhaseReduce, j.root.ID, j.pol, CounterRetryReduce)
	for ri := 0; ri < numRed; ri++ {
		rs.addTask(ri, fmt.Sprintf("reduce-%d", ri), "", nil, func(attempt int) (attemptOut, error) {
			res, err := j.run.reduceAttempt(ri, attempt)
			if err != nil {
				return attemptOut{}, err
			}
			return attemptOut{
				recordsIn:  res.recordsIn,
				recordsOut: int64(len(res.out)),
				apply: func(dur time.Duration) {
					res.tm.Observe(HistReduceTaskDurationUS, float64(dur.Microseconds()))
					rj.reg.Merge(res.tm)
					j.reduceOut[ri] = res.out
					j.reduceDur[ri] = dur
				},
			}, nil
		})
	}
	errs := rs.runAll(redCtx)
	redSpan.End()
	return firstErr(errs, rj.job.Name, "reduce")
}

// commitPhase writes the final output, under the same retry loop as tasks
// but without taking a slot. Every attempt builds the output file from
// scratch and publishes it on Close, so a retried commit publishes one
// complete file or none.
func (j *jobRun) commitPhase(ctx context.Context) error {
	_, commitReq := obs.StartSpan(ctx, "phase.commit")
	defer commitReq.End()
	var directOut []string
	for _, r := range j.maps {
		directOut = append(directOut, r.out...)
	}
	cs := newSched(j.c, j.rj, obs.PhaseCommit, j.root.ID, j.pol, CounterRetryCommit)
	err := cs.retry(ctx, newSchedTask(0, "commit", ""), func(span *obs.Span, _ int, _ fault.Decision) error {
		n, err := j.c.writeOutput(j.rj.job, directOut, j.reduceOut)
		if err != nil {
			return err
		}
		j.outCount = n
		span.RecordsOut = n
		span.Finish(obs.OutcomeOK)
		return nil
	})
	if err != nil {
		return fmt.Errorf("mapreduce: job %q commit failed: %w", j.rj.job.Name, err)
	}
	j.rj.reg.Inc(CounterOutputRecords, j.outCount)
	return nil
}

// writeOutput is one attempt of the commit step: it writes the buffered
// map/reduce output to a new generation of the output file, publishes it
// and returns the record count.
func (c *Cluster) writeOutput(job *Job, directOut []string, reduceOut [][]string) (int64, error) {
	w, err := c.fs.CreateOrReplace(job.Output)
	if err != nil {
		return 0, err
	}
	n := len(directOut)
	for _, rec := range directOut {
		w.WriteRecord(rec)
	}
	for _, part := range reduceOut {
		n += len(part)
		for _, rec := range part {
			w.WriteRecord(rec)
		}
	}
	return int64(n), w.Close()
}

// attemptResult is one successful map or reduce attempt as the phase
// functions see it, before the win gate — the same shape whichever
// runner executed it.
type attemptResult struct {
	// out is a map attempt's direct (early-flush) output, or a reduce
	// attempt's partition output.
	out []string
	// pairs/bytes are a map attempt's shuffle totals.
	pairs, bytes int64
	// recordsIn is the attempt's input record (map) or value (reduce) count.
	recordsIn int64
	tm        *obs.TaskMetrics
	// publish makes a map attempt's shards the ones reducers read; the
	// phase calls it for the winning attempt only. Nil for reduce attempts.
	publish func()
}

// runner is the attempt seam: where a job's map and reduce attempts
// execute and where the shards between them live. There are exactly two:
// localRunner (this process) and remoteRun (the worker pool).
type runner interface {
	mapAttempt(task, attempt int) (attemptResult, error)
	// shuffle runs between the phases, after every map task has won.
	shuffle()
	reduceAttempt(ri, attempt int) (attemptResult, error)
	close()
}

// newRunner picks the job's runner: the worker pool when a master runtime
// is up with live workers, this process otherwise. Both build the job's
// functions from its kind, so either can run any job.
func (c *Cluster) newRunner(ctx context.Context, rj *runningJob, splits []*Split, root int64) runner {
	local := &localRunner{rj: rj, splits: splits, slots: c.slots, shards: make([][][]Pair, len(splits))}
	if m := c.Master(); m != nil && m.LiveWorkers() > 0 {
		return startRemote(ctx, m, local, root)
	}
	return local
}

// localRunner executes attempts in this process and keeps the shards in
// memory.
type localRunner struct {
	rj     *runningJob
	splits []*Split
	slots  *SlotPool
	// shards holds, per map task, the winning attempt's pairs bucketed by
	// reducer; shuffle regroups them into one key → values map per reducer.
	shards [][][]Pair
	groups []map[string][]string
}

// execMap runs one map attempt and returns its result (unpublished) with
// the emitted shards.
func (l *localRunner) execMap(task, attempt int) (attemptResult, [][]Pair, error) {
	split := l.splits[task]
	shards, out, tm, err := ExecMapAttempt(l.rj.kf, l.rj.job.Conf, split, l.rj.nshards, attempt)
	if err != nil {
		if errors.Is(err, dfs.ErrChecksum) {
			l.rj.reg.Inc(CounterChecksumFailures, 1)
		}
		return attemptResult{}, nil, err
	}
	pairs, bytes := ShardTotals(shards)
	return attemptResult{out: out, pairs: pairs, bytes: bytes, recordsIn: int64(split.NumRecords()), tm: tm}, shards, nil
}

func (l *localRunner) mapAttempt(task, attempt int) (attemptResult, error) {
	res, shards, err := l.execMap(task, attempt)
	if err != nil {
		return attemptResult{}, err
	}
	res.publish = func() { l.shards[task] = shards }
	return res, nil
}

// shuffle regroups the map shards by reducer. Map tasks already bucketed
// their pairs, so the merge is embarrassingly parallel: one goroutine per
// reducer concatenates that reducer's shard from every task, in task
// order (which fixes the grouped value order).
func (l *localRunner) shuffle() {
	l.groups = make([]map[string][]string, l.rj.nshards)
	var wg sync.WaitGroup
	for ri := range l.groups {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			// Merge work is bounded and must complete even when the job's
			// context is cancelled (the job fails later with complete
			// state), so the acquire does not take it.
			_ = l.slots.Acquire(context.Background())
			defer l.slots.Release()
			g := make(map[string][]string)
			for _, shards := range l.shards {
				if ri < len(shards) { // else the task emitted nothing
					MergePairs(g, shards[ri])
				}
			}
			l.groups[ri] = g
		}(ri)
	}
	wg.Wait()
}

// execReduce runs one reduce attempt over grouped values.
func (l *localRunner) execReduce(groups map[string][]string, attempt int) (attemptResult, error) {
	out, valuesIn, tm, err := ExecReduceAttempt(l.rj.kf, l.rj.job.Conf, groups, attempt)
	return attemptResult{out: out, recordsIn: valuesIn, tm: tm}, err
}

func (l *localRunner) reduceAttempt(ri, attempt int) (attemptResult, error) {
	return l.execReduce(l.groups[ri], attempt)
}

func (l *localRunner) close() {}

// ExecMapAttempt executes one map attempt of a job kind's functions under
// the job's conf, applying the combiner to its output, and returns the
// task's emitted pairs bucketed by reducer shard plus its direct output.
// The attempt's metrics stay in the returned TaskMetrics buffer; the
// caller merges it into the job registry only on success, so a failed
// attempt's counts (including the combiner re-run) are discarded with it.
// Block checksums are verified before any record is decoded; a mismatch
// fails the attempt with the retryable dfs checksum error. It is the one
// map attempt body: the in-process runner and a worker both call it, with
// functions both built from the same kind, so their shards and output are
// byte-identical by construction.
func ExecMapAttempt(kf KindFuncs, conf map[string]string, split *Split, nshards, attempt int) ([][]Pair, []string, *obs.TaskMetrics, error) {
	for _, group := range [][]*dfs.Block{split.Blocks, split.Extra} {
		for _, b := range group {
			if err := b.VerifyCached(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	tm := obs.NewTaskMetrics()
	ctx := &TaskContext{conf: conf, split: split, metrics: tm, nshards: nshards, attempt: attempt}
	tm.Inc(CounterMapRecordsIn, int64(split.NumRecords()))
	if err := kf.Map(ctx, split); err != nil {
		return nil, nil, nil, err
	}
	shards := ctx.shards
	if kf.Combine != nil && ctx.numEmitted() > 0 {
		// Combine shard by shard: all occurrences of a key live in one
		// shard, so per-shard grouping sees every value of the key, and the
		// combiner's own emits re-bucket to the same shard.
		cctx := &TaskContext{conf: conf, split: split, metrics: tm, nshards: nshards, attempt: attempt}
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
				if err := kf.Combine(cctx, k, grouped[k]); err != nil {
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
