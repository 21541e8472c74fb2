// Package mapreduce implements the MapReduce runtime the paper's
// algorithms run on: a master that turns a job into map and reduce tasks,
// a pool of simulated worker nodes, a hash shuffle, combiners and job
// metrics. The spatial extensions of SpatialHadoop plug in through the
// Filter hook, which plays the role of the SpatialFileSplitter: it sees
// the global index of the input and decides which splits become map tasks.
//
// Every job run is observed. It records into the obs.Trace its context
// carries (a request's, or one of its own for a batch job) a job span, one
// span per phase and, per map or reduce task, a slot.wait and one span per
// attempt; an obs.Registry collects counters, gauges and histograms. Tasks
// buffer their metrics in task-local obs.TaskMetrics and the runtime
// merges a buffer into the registry only when the attempt succeeds, so hot
// paths take no locks per emitted value and retried attempts are never
// double-counted. The Report returned by Run embeds the trace and a
// metrics snapshot.
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
	// ContentMBR is the minimal MBR of the split's records, a record on
	// every edge (dominance filters rely on it): set by the spatial layer
	// for indexed files, empty otherwise. Filters read it through Cover.
	ContentMBR geom.Rect
	// Blocks are the data blocks of the split.
	Blocks []*dfs.Block
	// Extra optionally carries a second group of blocks, used by pair
	// splits; nil otherwise.
	Extra []*dfs.Block
	// Tag is operation-specific information attached by a Filter.
	Tag string
}

// Cover is the split's record bound, the rectangle every filter step
// tests: the content MBR, which the loader grows over each record it
// places (a region's full bounds), else the partition boundary. An
// overlapping technique's boundary comes from the loader's sample and
// need not hold its records. Replication dedup must NOT use Cover — the
// reference-point rule needs the boundary tiling (MBR) of disjoint ones.
func (s *Split) Cover() geom.Rect {
	if s.ContentMBR.IsEmpty() {
		return s.MBR
	}
	return s.ContentMBR
}

// Records returns all records of the primary block group, as each
// block's Records gives them: a text block's own slice (a single-block
// split returns it uncopied, and it must not be modified), a column
// block's text formatted anew on every call.
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

// Points returns the records of the primary block group as points, as
// each block's Points gives them: a column block's are its data, so
// retried attempts and multi-job pipelines (index build → query → query)
// parse nothing, and a text block's are parsed on every call. The returned
// slice is shared for a single column block and must not be modified.
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
	sel     []Selection // direct output given as selections
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

// WriteSelected writes records ids of the split's block-th block, in that
// order (ids ascend), to the job output like Write — but as a selection,
// not as text: the master writes the records from its own copy of the
// block, so an attempt formats nothing it only passes on, and a selection
// from a point block is stored as points. An attempt either Writes or
// selects: both fail it.
func (c *TaskContext) WriteSelected(block int, ids []int) {
	if len(ids) > 0 {
		c.sel = append(c.sel, Selection{Block: block, IDs: ids})
	}
}

// Selection is direct output given as records of one block of a map
// task's split (TaskContext.WriteSelected).
type Selection struct {
	// Block is the block's ordinal in Split.Blocks.
	Block int
	// IDs are the selected records, ascending.
	IDs []int
}

// source returns the block s selects from in split, checking that s fits
// it: the block exists and the ids ascend within it.
func (s *Selection) source(split *Split) (*dfs.Block, error) {
	if s.Block < 0 || s.Block >= len(split.Blocks) {
		return nil, fmt.Errorf("mapreduce: selection from block %d outside the split", s.Block)
	}
	b := split.Blocks[s.Block]
	prev := -1
	for _, id := range s.IDs {
		if id <= prev || id >= b.NumRecords() {
			return nil, fmt.Errorf("mapreduce: selection of record %d after %d from a block of %d", id, prev, b.NumRecords())
		}
		prev = id
	}
	return b, nil
}

// selected is how many records sel names.
func selected(sel []Selection) int64 {
	n := 0
	for _, s := range sel {
		n += len(s.IDs)
	}
	return int64(n)
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
	MapTasks    int // map rows in Tasks
	ReduceTasks int // reduce rows in Tasks: 0 for a map-only job
	// Counters is Metrics' counter section, the job counters the CLI, the
	// serve layer and the benchmark harness read.
	Counters    map[string]int64
	MapTime     time.Duration
	ShuffleTime time.Duration
	ReduceTime  time.Duration
	CommitTime  time.Duration
	Total       time.Duration
	OutputFile  string
	OutputCount int64
	// Tasks holds one row per won task, recorded at the win gate: the map
	// rows in the order of the filtered splits, then the reduce rows by
	// reducer. Every per-task view (SimulatedParallel, the summary's
	// slowest-task and skew tables) reads them, so they are exact whatever
	// the trace kept.
	Tasks []TaskRow

	// Metrics is the job's full metrics snapshot.
	Metrics *obs.Snapshot
	// Trace is the job's trace: the request's whole tree when the job ran
	// under one, else the job's own (queue.wait, then the job span with one
	// span per phase and, under map and reduce, each task's slot.wait and
	// attempts).
	Trace *obs.Trace
}

// TaskRow is what one won task did, read from its winning attempt's
// metrics buffer, plus the attempt's duration as the win gate saw it.
type TaskRow struct {
	Phase     string // obs.PhaseMap or obs.PhaseReduce
	Task      int
	Partition string
	Dur       time.Duration
	// RecordsIn is a map's input records or a reduce's input values;
	// RecordsOut is what the task emitted, wrote and selected; Bytes is a
	// map's shuffle bytes; Selected is a map's selected direct output.
	RecordsIn, RecordsOut, Bytes, Selected int64
}

// work sums the durations of phase's rows and finds the longest.
func (r *Report) work(phase string) (sum, longest time.Duration) {
	for _, t := range r.Tasks {
		if t.Phase == phase {
			sum += t.Dur
			longest = max(longest, t.Dur)
		}
	}
	return sum, longest
}

// SimulatedParallel estimates the job's makespan on a cluster with the
// given number of worker machines using the standard LPT bound per phase:
// max(total work / workers, longest task). It lets a run on a small host
// report what the paper's 25-node deployment would observe, modulo network
// costs (which this runtime does not charge).
func (r *Report) SimulatedParallel(workers int) time.Duration {
	total := r.ShuffleTime + r.CommitTime
	for _, phase := range []string{obs.PhaseMap, obs.PhaseReduce} {
		sum, longest := r.work(phase)
		total += max(sum/time.Duration(max(workers, 1)), longest)
	}
	return total
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

// FS returns the cluster's file system.
func (c *Cluster) FS() *dfs.FileSystem { return c.fs }

// Workers returns the number of worker slots.
func (c *Cluster) Workers() int { return c.workers }

// SetFault installs a seeded fault plan driving the injector for all
// subsequent jobs. A disabled (zero) plan clears injection. The injector
// is replaced wholesale, resetting its event log.
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
	kf  KindFuncs
	reg *obs.Registry
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
	if obs.TraceFrom(ctx) == nil {
		ctx = obs.ContextWithTrace(ctx, obs.NewJobTrace(obs.NewTraceID()))
	}
	if a := c.admission(); a != nil {
		// queue.wait covers the admission gate: on a loaded cluster this is
		// where a trace shows the job sitting behind other jobs.
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

// jobRun is the state one run of an admitted job threads through its
// phases: map → shuffle → reduce → commit. Every phase asks the runner
// (the attempt seam) to execute attempts and does the bookkeeping itself,
// so counters, histograms and spans are written once for both runners.
type jobRun struct {
	c   *Cluster
	rj  *runningJob
	pol fault.RetryPolicy
	run runner

	splits []*Split

	// maps and reduces hold each task's winning attempt, whose output the
	// commit writes; rows are the won tasks' rows, the report's Tasks.
	maps, reduces []attemptResult
	rows          []TaskRow
	outCount      int64
}

// runJob executes one admitted job: it plans the job, runs its phases and
// assembles the report. A pool run whose last worker dies fails with
// errPoolEmpty; the job then fails over once, running again in process
// from the same splits under a fresh jobRun, and the aborted run's
// registry, rows and outputs are dropped with it.
func (c *Cluster) runJob(ctx context.Context, job *Job, kf KindFuncs) (*Report, error) {
	start := time.Now()
	// The job span parents one span per phase, which in turn parent the
	// scheduler's slot.wait and attempt spans.
	ctx, root := obs.StartSpan(ctx, "job")
	root.Phase, root.Task = obs.PhaseJob, -1
	root.SetAttr("name", job.Name)
	rep := &Report{Job: job.Name, OutputFile: job.Output, Trace: obs.TraceFrom(ctx)}
	splits, total, err := c.plan(ctx, job)
	var j *jobRun
	if err == nil {
		m := c.Master()
		j = c.newJobRun(job, kf, splits, total)
		err = j.phases(ctx, rep, m)
		if errors.Is(err, errPoolEmpty) {
			m.flog.Append(fault.Event{Kind: "failover"})
			// The restart's phases open under one failover span, so a trace
			// shows two runs of the job rather than duplicated tasks.
			fctx, span := obs.StartSpan(ctx, "failover")
			span.Task = -1
			j = c.newJobRun(job, kf, splits, total)
			err = j.phases(fctx, rep, nil)
			span.End()
		}
	}
	if err != nil {
		root.Outcome = obs.OutcomeFailed
		root.End()
		return nil, err
	}
	root.RecordsOut, root.Outcome = j.outCount, obs.OutcomeOK
	root.End()

	rep.Splits, rep.SplitsTotal = len(splits), total
	rep.Tasks, rep.MapTasks, rep.ReduceTasks = j.rows, len(j.maps), len(j.reduces)
	rep.OutputCount = j.outCount
	rep.Metrics = j.rj.reg.Snapshot()
	rep.Counters = rep.Metrics.Counters
	rep.Total = time.Since(start)
	return rep, nil
}

// newJobRun starts one run of the job over its planned splits, with a
// registry of its own that opens with the plan's counts.
func (c *Cluster) newJobRun(job *Job, kf KindFuncs, splits []*Split, total int) *jobRun {
	numRed := job.NumReducers
	if numRed <= 0 {
		numRed = 1
	}
	reg := obs.NewRegistry()
	reg.Inc(CounterSplitsTotal, int64(total))
	if job.Filter != nil {
		reg.Inc(CounterSplitsFiltered, int64(total-len(splits)))
	}
	reg.Inc(CounterSplitsMapped, int64(len(splits)))
	if total > 0 {
		reg.SetGauge(GaugeFilterPruneRatio, float64(total-len(splits))/float64(total))
	}
	rj := &runningJob{job: job, kf: kf, reg: reg, nshards: numRed}
	return &jobRun{c: c, rj: rj, pol: c.RetryPolicy(), splits: splits}
}

// phases picks the run's runner — the pool of m when it has a live worker
// — and runs the four timed phases in order, stopping at the first that
// fails.
func (j *jobRun) phases(ctx context.Context, rep *Report, m *Master) error {
	if m != nil && m.LiveWorkers() > 0 {
		j.run = startRemote(ctx, m, j.rj, j.splits)
	} else {
		j.run = &localRunner{rj: j.rj, splits: j.splits, slots: j.c.slots, shards: make([][][]Pair, len(j.splits))}
	}
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
// SpatialFileSplitter step — returning the splits kept and the number
// before filtering.
func (c *Cluster) plan(ctx context.Context, job *Job) ([]*Split, int, error) {
	splits := job.Splits
	if splits == nil {
		var err error
		if splits, err = c.MakeSplits(job.Input); err != nil {
			return nil, 0, err
		}
	}
	total := len(splits)
	if job.Filter != nil {
		_, span := startPhase(ctx, obs.PhaseFilter)
		splits = job.Filter(splits)
		span.RecordsIn, span.RecordsOut = int64(total), int64(len(splits))
		span.End()
	}
	return splits, total, nil
}

// mapPhase runs one scheduled task per split. The scheduler's win gate
// does the bookkeeping, once, whichever runner executed the attempt.
func (j *jobRun) mapPhase(ctx context.Context) error {
	mapCtx, mapSpan := startPhase(ctx, obs.PhaseMap)
	ms := newSched(j.c, j.rj, obs.PhaseMap, j.pol, CounterRetryMap)
	for _, split := range j.splits {
		var blk *dfs.Block
		if len(split.Blocks) > 0 {
			blk = split.Blocks[0]
		}
		ms.addTask(split.Partition, blk)
	}
	errs := ms.runAll(mapCtx, j.run.mapAttempt)
	mapSpan.End()
	j.maps, j.rows = ms.won, append(j.rows, ms.rows...)
	return firstErr(errs, j.rj.job.Name, "map")
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

// startPhase opens a phase's one span. It carries Task -1, so it never
// passes for a task attempt.
func startPhase(ctx context.Context, phase string) (context.Context, *obs.Span) {
	ctx, span := obs.StartSpan(ctx, "phase."+phase)
	span.Phase, span.Task = phase, -1
	return ctx, span
}

// shufflePhase makes the winning map shards reachable by the reducers
// (the runner's business) and records the job-wide shuffle totals: the
// won map tasks' buffers, already merged into the job counters.
func (j *jobRun) shufflePhase(ctx context.Context) error {
	_, span := startPhase(ctx, obs.PhaseShuffle)
	j.run.shuffle()
	span.RecordsIn, span.Bytes = j.rj.reg.Counter(CounterShufflePairs), j.rj.reg.Counter(CounterShuffleBytes)
	span.End()
	return nil
}

// reducePhase runs one scheduled task per reducer (none for a map-only
// job).
func (j *jobRun) reducePhase(ctx context.Context) error {
	if j.rj.kf.Reduce == nil {
		return nil
	}
	redCtx, redSpan := startPhase(ctx, obs.PhaseReduce)
	rs := newSched(j.c, j.rj, obs.PhaseReduce, j.pol, CounterRetryReduce)
	for range j.rj.nshards {
		rs.addTask("", nil)
	}
	errs := rs.runAll(redCtx, j.run.reduceAttempt)
	redSpan.End()
	j.reduces, j.rows = rs.won, append(j.rows, rs.rows...)
	return firstErr(errs, j.rj.job.Name, "reduce")
}

// commitPhase writes the final output, under the same retry loop as tasks
// but without taking a slot. Every attempt builds the output file from
// scratch and publishes it on Close, so a retried commit publishes one
// complete file or none.
func (j *jobRun) commitPhase(ctx context.Context) error {
	ctx, span := startPhase(ctx, obs.PhaseCommit)
	defer span.End()
	cs := newSched(j.c, j.rj, obs.PhaseCommit, j.pol, CounterRetryCommit)
	err := cs.retry(ctx, newSchedTask(0, "commit", ""), func(attempt *obs.Span, _ int, _ fault.Decision) error {
		n, err := j.writeOutput()
		if err != nil {
			return err
		}
		j.outCount = n
		attempt.RecordsOut = n
		endAs(attempt, obs.OutcomeOK)
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
// and returns the record count. A map task's selections are resolved
// against the master's own split, so the records written are its copies;
// one that does not fit the split publishes nothing.
func (j *jobRun) writeOutput() (int64, error) {
	w, err := j.c.fs.CreateOrReplace(j.rj.job.Output)
	if err != nil {
		return 0, err
	}
	n := 0
	for task, r := range j.maps {
		n += len(r.out)
		for _, rec := range r.out {
			w.WriteRecord(rec)
		}
		for _, s := range r.sel {
			src, err := s.source(j.splits[task])
			if err != nil {
				return 0, fmt.Errorf("mapreduce: map task %d: %w", task, err)
			}
			n += len(s.IDs)
			w.WriteSelected(src, s.IDs)
		}
	}
	for _, r := range j.reduces {
		n += len(r.out)
		for _, rec := range r.out {
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
	// attempt's partition output; sel is a map attempt's direct output
	// given as selections.
	out []string
	sel []Selection
	// tm is the attempt's metrics buffer, the one record of what it did.
	tm *obs.TaskMetrics
	// publish makes a map attempt's shards the ones reducers read; the win
	// gate calls it for the winning attempt only. Nil for reduce attempts.
	publish func()
}

// row reads the attempt's task row from its buffer: what a map read,
// emitted, shuffled and selected, or what a reduce read and wrote.
func (r *attemptResult) row(phase string) TaskRow {
	if phase == obs.PhaseReduce {
		return TaskRow{Phase: phase, RecordsIn: int64(r.tm.Sum(HistReducePartRecords)), RecordsOut: int64(len(r.out))}
	}
	sel := selected(r.sel)
	return TaskRow{
		Phase: phase, RecordsIn: r.tm.Get(CounterMapRecordsIn),
		RecordsOut: r.tm.Get(CounterShufflePairs) + int64(len(r.out)) + sel,
		Bytes:      r.tm.Get(CounterShuffleBytes), Selected: sel,
	}
}

// runner is the attempt seam: where a job run's map and reduce attempts
// execute and where the shards between them live. There are exactly two,
// and neither falls back on the other: localRunner (this process) and
// remoteRun (the worker pool).
type runner interface {
	mapAttempt(task, attempt int) (attemptResult, error)
	// shuffle runs between the phases, after every map task has won.
	shuffle()
	reduceAttempt(ri, attempt int) (attemptResult, error)
	close()
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

func (l *localRunner) mapAttempt(task, attempt int) (attemptResult, error) {
	shards, out, sel, tm, err := ExecMapAttempt(l.rj.kf, l.rj.job.Conf, l.splits[task], l.rj.nshards, attempt)
	if err != nil {
		if errors.Is(err, dfs.ErrChecksum) {
			l.rj.reg.Inc(CounterChecksumFailures, 1)
		}
		return attemptResult{}, err
	}
	return attemptResult{out: out, sel: sel, tm: tm, publish: func() { l.shards[task] = shards }}, nil
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

func (l *localRunner) reduceAttempt(ri, attempt int) (attemptResult, error) {
	out, tm, err := ExecReduceAttempt(l.rj.kf, l.rj.job.Conf, l.groups[ri], attempt)
	return attemptResult{out: out, tm: tm}, err
}

func (l *localRunner) close() {}

// ExecMapAttempt executes one map attempt of a job kind's functions under
// the job's conf, applying the combiner to its output, and returns the
// task's emitted pairs bucketed by reducer shard plus its direct output,
// written or selected.
// The attempt's metrics stay in the returned TaskMetrics buffer, the one
// record of its records in, pairs emitted and shuffle bytes; the caller
// merges it into the job registry only on success, so a failed attempt's
// counts (including the combiner re-run) are discarded with it.
// Block checksums are verified before any record is decoded; a mismatch
// fails the attempt with the retryable dfs checksum error. It is the one
// map attempt body: the in-process runner and a worker both call it, with
// functions both built from the same kind, so their shards and output are
// byte-identical by construction.
func ExecMapAttempt(kf KindFuncs, conf map[string]string, split *Split, nshards, attempt int) ([][]Pair, []string, []Selection, *obs.TaskMetrics, error) {
	for _, group := range [][]*dfs.Block{split.Blocks, split.Extra} {
		for _, b := range group {
			if err := b.VerifyCached(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	tm := obs.NewTaskMetrics()
	ctx := &TaskContext{conf: conf, split: split, metrics: tm, nshards: nshards, attempt: attempt}
	in := int64(split.NumRecords())
	tm.Inc(CounterMapRecordsIn, in)
	if err := kf.Map(ctx, split); err != nil {
		return nil, nil, nil, nil, err
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
					return nil, nil, nil, nil, err
				}
			}
		}
		// Direct writes from the combiner join the map task's output.
		ctx.out = append(ctx.out, cctx.out...)
		ctx.sel = append(ctx.sel, cctx.sel...)
		shards = cctx.shards
	}
	if len(ctx.out) > 0 && len(ctx.sel) > 0 {
		return nil, nil, nil, nil, errors.New("mapreduce: a map attempt both wrote and selected its output")
	}
	// Every selection must fit the split: the wire carries only ascending
	// ids.
	for _, s := range ctx.sel {
		if _, err := s.source(split); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	// The shuffle totals are counted here, once per attempt, instead of
	// under a registry mutex per pair.
	pairs, bytes := shardTotals(shards)
	tm.Inc(CounterMapRecordsOut, pairs)
	tm.Inc(CounterShufflePairs, pairs)
	tm.Inc(CounterShuffleBytes, bytes)
	tm.Observe(HistMapTaskRecordsIn, float64(in))
	tm.Observe(HistMapTaskShuffleBytes, float64(bytes))
	return shards, ctx.out, ctx.sel, tm, nil
}

// shardTotals sums a map attempt's shuffle output: pair count and encoded
// key+value bytes.
func shardTotals(shards [][]Pair) (pairs, bytes int64) {
	for _, shard := range shards {
		pairs += int64(len(shard))
		for _, p := range shard {
			bytes += int64(len(p.Key) + len(p.Value))
		}
	}
	return pairs, bytes
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

// MakeSplits builds the default (unfiltered) splits of the input files,
// each file's as SplitsOf gives them.
func (c *Cluster) MakeSplits(inputs []string) ([]*Split, error) {
	var splits []*Split
	for _, name := range inputs {
		f, err := c.fs.Open(name)
		if err != nil {
			return nil, err
		}
		splits = append(splits, SplitsOf(f)...)
	}
	return splits, nil
}

// SplitsOf is the spatial file splitter. An indexed file gives one split
// per partition, in the order its blocks first name them (the index's cell
// order for every loader-written file), each carrying its cell's boundary
// and minimal content MBR so filter functions can prune without reading
// records; a partition the index has no cell for gets the world MBR and
// an empty content MBR, like a heap block. A heap file degrades to one
// split per block with no spatial metadata, matching plain Hadoop.
func SplitsOf(f *dfs.File) []*Split {
	var splits []*Split
	if f.Index == nil {
		for _, b := range f.Blocks {
			splits = append(splits, &Split{MBR: geom.WorldRect(), ContentMBR: geom.EmptyRect(), Blocks: []*dfs.Block{b}})
		}
		return splits
	}
	byKey := make(map[string]*Split)
	for _, b := range f.Blocks {
		if s := byKey[b.Partition]; s != nil {
			s.Blocks = append(s.Blocks, b)
			continue
		}
		s := &Split{Partition: b.Partition, MBR: geom.WorldRect(), ContentMBR: geom.EmptyRect(), Blocks: []*dfs.Block{b}}
		if cell, ok := f.Index.CellByKey(b.Partition); ok {
			s.MBR, s.ContentMBR = cell.Boundary, cell.Content
		}
		byKey[b.Partition] = s
		splits = append(splits, s)
	}
	return splits
}
