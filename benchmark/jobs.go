package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// jobCorpus is the job workloads' data: the points twice (indexed and
// heap) and two region files for the join.
type jobCorpus struct {
	pts  []geom.Point
	a, b []geom.Region
}

func genJobCorpus(seed int64, sz sizes) jobCorpus {
	return jobCorpus{
		pts: genPoints(seed, sz.points),
		a:   genRegions(seed+1, sz.tessA),
		b:   genRegions(seed+2, sz.tessB),
	}
}

func (c *jobCorpus) loadRegions(sys *core.System) error {
	if _, err := sys.LoadRegions("a", c.a, sindex.Grid); err != nil {
		return err
	}
	_, err := sys.LoadRegions("b", c.b, sindex.Grid)
	return err
}

// load stores the whole corpus into sys.
func (c *jobCorpus) load(sys *core.System) error {
	if _, err := sys.LoadPoints("pts", c.pts, sindex.STRPlus); err != nil {
		return err
	}
	if err := sys.LoadPointsHeap("heap", c.pts); err != nil {
		return err
	}
	return c.loadRegions(sys)
}

// jobOracle holds the expected answer of every job the schedule can run,
// computed without the MapReduce runtime: brute force over the raw points
// for range and kNN, the single-machine algorithms for the computational
// geometry operations, and for the join the pair set of one serial
// in-process run (the same reference for jobs-inproc and jobs-remote, so
// the two must agree with each other).
type jobOracle struct {
	windows  []string // digest of the sorted matching points
	heap     []string
	knn      [][]float64 // the k smallest distances
	skyline  string
	hull     string
	closest  float64
	joinSize int
	join     string
}

// pointsDigest is an order-independent fingerprint of a point set: its
// size and the wrapping sum of a 64-bit mix of every point's coordinates.
// It is linear and allocation-free because it runs on every range job's
// full result inside the measured window.
func pointsDigest(pts []geom.Point) string {
	var sum uint64
	for _, p := range pts {
		z := math.Float64bits(p.X)*0x9E3779B97F4A7C15 ^ bits.RotateLeft64(math.Float64bits(p.Y), 31)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		sum += z ^ (z >> 31)
	}
	return fmt.Sprintf("%d:%016x", len(pts), sum)
}

func bruteRange(pts []geom.Point, r geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if r.ContainsPoint(p) {
			out = append(out, p)
		}
	}
	return out
}

func joinDigest(pairs []ops.JoinPair) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Left + "\t" + p.Right
	}
	sort.Strings(keys)
	d := newDigest()
	for _, k := range keys {
		d.add([]byte(k))
	}
	return d.sum()
}

func newJobOracle(c *jobCorpus, p jobPools) (*jobOracle, error) {
	o := &jobOracle{}
	for _, w := range p.Windows {
		o.windows = append(o.windows, pointsDigest(bruteRange(c.pts, w)))
	}
	for _, w := range p.Heap {
		o.heap = append(o.heap, pointsDigest(bruteRange(c.pts, w)))
	}
	for _, q := range p.KNN {
		o.knn = append(o.knn, bruteKNNDists(c.pts, q, jobKNNK))
	}
	o.skyline = pointsDigest(cg.SkylineSingle(c.pts))
	o.hull = pointsDigest(cg.ConvexHullSingle(c.pts))
	pair, ok := cg.ClosestPairSingle(c.pts)
	if !ok {
		return nil, fmt.Errorf("corpus too small for a closest pair")
	}
	o.closest = pair.Dist

	ref := newSystem()
	if err := c.loadRegions(ref); err != nil {
		return nil, err
	}
	pairs, _, err := ops.SpatialJoinIndexedTo(ref, "a", "b", "join.ref")
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("reference join found no pair")
	}
	o.joinSize, o.join = len(pairs), joinDigest(pairs)
	return o, nil
}

// jobInst is one job deployment: the corpus loaded and, for jobs-remote,
// a master with two single-slot workers.
type jobInst struct {
	sys *core.System
	wc  *workerCluster
}

func newJobInst(c *jobCorpus, remote bool) (*jobInst, error) {
	in := &jobInst{sys: newSystem()}
	if err := c.load(in.sys); err != nil {
		return nil, err
	}
	if remote {
		wc, err := startWorkers(in.sys, numWorkers, false)
		if err != nil {
			return nil, err
		}
		in.wc = wc
	}
	return in, nil
}

func (in *jobInst) close() { in.wc.stop() }

// jobAgg sums what the ledger needs from every job's Report.
type jobAgg struct {
	byKind                                 map[string][]float64 // op wall ms
	total, mapT, shuffleT, reduceT, commit time.Duration
	shuffleBytes                           int64
	shuffleBusy                            time.Duration // shuffle time of jobs that shuffled bytes
	splitsTotal, splitsKept                int64
	tasks, dispatched, retries             int64
	recordsIn, recordsOut                  int64
	mapTaskUS                              []float64
	maxOverMean                            []float64
}

func newJobAgg() *jobAgg { return &jobAgg{byKind: make(map[string][]float64)} }

// add folds one job in. dispatched is how far mr.tasks.dispatched moved
// over the job: with every task on a worker it equals the task count,
// except that a two-round kNN returns only its final round's Report, so
// the counter may run ahead of the tasks seen and is capped per job.
func (a *jobAgg) add(kind string, wall time.Duration, rep *mapreduce.Report, dispatched int64) {
	a.byKind[kind] = append(a.byKind[kind], float64(wall.Nanoseconds())/1e6)
	a.total += rep.Total
	a.mapT += rep.MapTime
	a.shuffleT += rep.ShuffleTime
	a.reduceT += rep.ReduceTime
	a.commit += rep.CommitTime
	if b := rep.Counters[mapreduce.CounterShuffleBytes]; b > 0 {
		a.shuffleBytes += b
		a.shuffleBusy += rep.ShuffleTime
	}
	a.splitsTotal += int64(rep.SplitsTotal)
	a.splitsKept += int64(rep.Splits)
	// Report.ReduceTasks counts configured reducers even for map-only jobs;
	// the trace has one span per task attempt that actually ran.
	var tasks int64
	if rep.Trace != nil {
		for _, s := range rep.Trace.Spans() {
			if (s.Phase == obs.PhaseMap || s.Phase == obs.PhaseReduce) && s.Task >= 0 {
				tasks++
			}
		}
	}
	a.tasks += tasks
	a.dispatched += min(dispatched, tasks)
	a.retries += rep.Counters[mapreduce.CounterTaskRetries]
	a.recordsIn += rep.Counters[mapreduce.CounterMapRecordsIn]
	a.recordsOut += rep.Counters[mapreduce.CounterOutputRecords]
}

// jobPass runs the round schedule from one driver: each job waits for the
// previous one, like a batch client.
type jobPass struct {
	in     *jobInst
	pools  jobPools
	oracle *jobOracle
	remote bool
	tr     *tracer
	agg    *jobAgg
	// digest, when set, accumulates the pass's answers to the remotable
	// kinds. It is set for the warm-up round, which runs the same jobs on
	// jobs-inproc and jobs-remote, so the two digests must be equal.
	digest *digest
}

// runOp runs one job, checks its answer, deletes its output, and returns
// the job's wall time.
func (p *jobPass) runOp(op jobOp) (time.Duration, error) {
	sys := p.in.sys
	var (
		rep   *mapreduce.Report
		err   error
		outs  []string
		check func() (answer string, err error) // the answer's digest, once it matched the oracle
	)
	dispatched := sys.Metrics().Counter(mapreduce.MetricTasksDispatched)
	start := time.Now()
	switch op.Kind {
	case jobRangeIdx, jobRangeHeap:
		file, windows, want := "pts", p.pools.Windows, p.oracle.windows
		if op.Kind == jobRangeHeap {
			file, windows, want = "heap", p.pools.Heap, p.oracle.heap
		}
		outs = []string{"bench.range.out"}
		var pts []geom.Point
		pts, rep, err = ops.RangeQueryPointsTo(sys, file, windows[op.Arg], outs[0])
		check = func() (string, error) { return matchDigest(pointsDigest(pts), want[op.Arg]) }
	case jobKNN:
		outs = []string{"bench.knn.r1", "bench.knn.r2"}
		q := p.pools.KNN[op.Arg]
		var pts []geom.Point
		pts, rep, err = ops.KNNTo(sys, "pts", q, jobKNNK, "bench.knn")
		check = func() (string, error) {
			want := p.oracle.knn[op.Arg]
			if len(pts) != len(want) {
				return "", fmt.Errorf("%d neighbours, brute force finds %d", len(pts), len(want))
			}
			got := make([]float64, len(pts))
			for i, pt := range pts {
				got[i] = pt.Dist(q)
			}
			sort.Float64s(got)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+want[i]) {
					return "", fmt.Errorf("neighbour %d at %g, brute force says %g", i, got[i], want[i])
				}
			}
			return fmt.Sprint(got), nil
		}
	case jobJoin:
		outs = []string{"bench.join.out"}
		var pairs []ops.JoinPair
		pairs, rep, err = ops.SpatialJoinIndexedTo(sys, "a", "b", outs[0])
		check = func() (string, error) {
			if len(pairs) != p.oracle.joinSize {
				return "", fmt.Errorf("%d pairs, the serial reference has %d", len(pairs), p.oracle.joinSize)
			}
			return matchDigest(joinDigest(pairs), p.oracle.join)
		}
	case jobSkyline:
		outs = []string{"pts.skyline.out"}
		var pts []geom.Point
		pts, rep, err = cg.SkylineSHadoop(sys, "pts")
		check = func() (string, error) { return matchDigest(pointsDigest(pts), p.oracle.skyline) }
	case jobHull:
		outs = []string{"pts.hull.out"}
		var pts []geom.Point
		pts, rep, err = cg.ConvexHullSHadoop(sys, "pts")
		check = func() (string, error) { return matchDigest(pointsDigest(pts), p.oracle.hull) }
	case jobClosest:
		outs = []string{"pts.closest.out"}
		var pair geom.PointPair
		pair, rep, err = cg.ClosestPairSHadoop(sys, "pts")
		check = func() (string, error) {
			// The job re-derives the distance from the pair it decoded.
			if math.Abs(pair.Dist-p.oracle.closest) > 1e-9*(1+p.oracle.closest) {
				return "", fmt.Errorf("closest pair at %g, single-machine says %g", pair.Dist, p.oracle.closest)
			}
			return fmt.Sprint(pair.Dist), nil
		}
	default:
		return 0, fmt.Errorf("unknown job kind %q", op.Kind)
	}
	wall := time.Since(start)
	for _, o := range outs {
		sys.FS().Delete(o)
	}
	if err != nil {
		return wall, fmt.Errorf("%s[%d]: %w", op.Kind, op.Arg, err)
	}
	answer, err := check()
	if err != nil {
		return wall, fmt.Errorf("%s[%d]: %w", op.Kind, op.Arg, err)
	}
	if p.digest != nil && remotable(op.Kind) {
		p.digest.add([]byte(answer))
	}
	p.agg.add(op.Kind, wall, rep, sys.Metrics().Counter(mapreduce.MetricTasksDispatched)-dispatched)
	p.trace(op.Kind, start, wall, rep)
	return wall, nil
}

func matchDigest(got, want string) (string, error) {
	if got != want {
		return "", fmt.Errorf("answer %s diverged from the oracle %s", got, want)
	}
	return got, nil
}

// remotable reports whether the worker runtime can execute the kind; the
// other kinds have no registered job kind and would silently run in
// process.
func remotable(kind string) bool {
	switch kind {
	case jobRangeIdx, jobKNN, jobRangeHeap, jobJoin:
		return true
	}
	return false
}

// trace records the job as a harness span and hangs the spans of its
// Report.Trace under it, re-based from the job's clock onto the harness's.
// It also takes the per-task figures that only the trace has.
func (p *jobPass) trace(kind string, start time.Time, wall time.Duration, rep *mapreduce.Report) {
	if p.tr == nil || rep.Trace == nil {
		return
	}
	op := p.tr.newOp()
	root := p.tr.record(0, 0, op, "job."+kind, start, wall)
	// The job's clock starts inside Run, after the op wrapper opened the
	// file and built splits; anchoring the job's end to the wrapper's end
	// would be as arbitrary, so the tree is simply started at the call.
	spans := rep.Trace.Spans()
	ids := map[int64]int64{0: root}
	for _, s := range spans {
		ids[s.ID] = p.tr.reserve()
	}
	var mapUS []float64
	for _, s := range spans {
		p.tr.record(ids[s.ID], ids[s.Parent], op, "mr/"+s.Phase+"/"+s.Name,
			start.Add(time.Duration(s.StartUS)*time.Microsecond), time.Duration(s.DurUS)*time.Microsecond)
		if s.Phase == obs.PhaseMap && s.Task >= 0 && s.Outcome == obs.OutcomeOK {
			mapUS = append(mapUS, float64(s.DurUS))
		}
	}
	p.agg.mapTaskUS = append(p.agg.mapTaskUS, mapUS...)
	if len(mapUS) > 1 {
		p.agg.maxOverMean = append(p.agg.maxOverMean, sortedCopy(mapUS)[len(mapUS)-1]/mean(mapUS))
	}
}

// roundsPerSlice is how many rounds make one slice of a job window. In
// process a closest pair joins every fourth round, so four rounds are the
// smallest piece of the schedule that repeats; a remote round has no such
// extra and takes as long as four in-process ones.
func roundsPerSlice(remote bool) int {
	if remote {
		return 1
	}
	return 4
}

// slice runs slice i of the schedule: whole rounds, after the warm-up's
// round 0.
func (p *jobPass) slice(i int) *opLog {
	log := &opLog{}
	n := roundsPerSlice(p.remote)
	for r := 1 + i*n; r < 1+(i+1)*n; r++ {
		for _, op := range jobRound(r, p.pools, p.remote) {
			wall, err := p.runOp(op)
			if err != nil {
				log.fail(err)
				continue
			}
			log.ok(wall)
		}
	}
	return log
}

// runJobs is jobs-inproc and jobs-remote.
func runJobs(cfg runConfig, remote bool) (*result, error) {
	sz := sizesFor(cfg.scale)
	corpus := genJobCorpus(cfg.seed, sz)
	pools := genJobPools(cfg.seed, corpus.pts, sz)
	oracle, err := newJobOracle(&corpus, pools)
	if err != nil {
		return nil, err
	}

	ref := newReference()
	res := &result{Workload: cfg.workload, Traced: cfg.traced, Env: cfg.env()}
	pass := &jobPass{pools: pools, oracle: oracle, remote: remote}
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if pass.in != nil {
			pass.in.close()
		}
		secs, err := ref.timeSetup(func() error {
			in, err := newJobInst(&corpus, remote)
			if err != nil {
				return err
			}
			// Warm-up is round 0: it decodes every block, builds the local
			// indexes and, on the worker cluster, places the replicas.
			pass.in, pass.agg, pass.digest = in, newJobAgg(), newDigest()
			for _, op := range jobRound(0, pools, remote) {
				if _, err := pass.runOp(op); err != nil {
					in.close()
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		res.Digest = pass.digest.sum()
		pass.digest = nil
	}
	in := pass.in
	defer in.close()

	pass.agg = newJobAgg()
	timed := measure(cfg.timedWindow(), ref, pass.slice)
	res.endToEndMetrics(&timed, setups)
	assertJobPath(res, remote, pass.agg)
	if !cfg.traced {
		return res, nil
	}

	tr := newTracer()
	pass.tr, pass.agg = tr, newJobAgg()
	before := in.sys.Metrics().Snapshot()
	traced := measure(cfg.tracedWindow(), ref, pass.slice)
	after := in.sys.Metrics().Snapshot()
	pass.tr = nil
	res.foldTraced(&timed, &traced)
	jobLedger(res, pass.agg, before, after)
	dataPlaneMetrics(res, before, after)
	res.set("sindex.partition_imbalance", after.Gauges[core.GaugePartitionImbalance])

	// The micro-levels want a points pool of their own: the job workloads
	// have no serving pool.
	if err := microLevels(res, microEnv{
		tr: tr, sys: in.sys, file: "pts", pts: corpus.pts, regions: corpus.a,
		pool: genPool(cfg.seed, "pts", corpus.pts, sz.pool), wc: in.wc,
		userBytes: 2*rawPointBytes(corpus.pts) + rawRegionBytes(corpus.a) + rawRegionBytes(corpus.b),
	}); err != nil {
		return nil, err
	}
	res.fillPerLayer()
	return res, tr.writeJSONL(cfg.tracePath())
}

// assertJobPath fails the run when jobs did not execute where the workload
// says they do.
func assertJobPath(res *result, remote bool, agg *jobAgg) {
	if agg.retries != 0 {
		res.problem("mapreduce.task_retries %d != 0", agg.retries)
	}
	if !remote {
		if agg.dispatched != 0 {
			res.problem("%d tasks were dispatched to workers on the in-process workload", agg.dispatched)
		}
		return
	}
	if agg.dispatched == 0 {
		res.problem("mr.tasks.dispatched did not move: every job fell back in process")
	}
	if agg.dispatched != agg.tasks {
		res.problem("mapreduce.remote_task_share %.3f != 1 (%d dispatched, %d tasks)", ratio(float64(agg.dispatched), float64(agg.tasks)), agg.dispatched, agg.tasks)
	}
}

// jobLedger turns the traced pass's Reports into the ops, cg and mapreduce
// ledger entries.
func jobLedger(res *result, a *jobAgg, before, after *obs.Snapshot) {
	for kind, name := range map[string]string{
		jobRangeIdx: "ops.job_range_idx_ms", jobRangeHeap: "ops.job_range_heap_ms",
		jobKNN: "ops.job_knn_ms", jobJoin: "ops.job_join_ms",
		jobSkyline: "cg.job_skyline_ms", jobHull: "cg.job_hull_ms", jobClosest: "cg.job_closest_ms",
	} {
		res.set(name, median(a.byKind[kind]))
	}
	res.set("ops.rows_examined_per_result", ratio(float64(a.recordsIn), float64(a.recordsOut)))
	total := float64(a.total)
	res.set("mapreduce.map_share", ratio(float64(a.mapT), total))
	res.set("mapreduce.shuffle_share", ratio(float64(a.shuffleT), total))
	res.set("mapreduce.reduce_share", ratio(float64(a.reduceT), total))
	res.set("mapreduce.commit_share", ratio(float64(a.commit), total))
	res.set("mapreduce.other_share", ratio(float64(a.total-a.mapT-a.shuffleT-a.reduceT-a.commit), total))
	res.set("mapreduce.map_task_p50_us", median(a.mapTaskUS))
	res.set("mapreduce.map_task_max_over_mean", median(a.maxOverMean))
	res.set("mapreduce.shuffle_mb_per_s", ratio(float64(a.shuffleBytes)/(1<<20), a.shuffleBusy.Seconds()))
	res.set("mapreduce.prune_share", ratio(float64(a.splitsTotal-a.splitsKept), float64(a.splitsTotal)))
	res.set("mapreduce.task_retries", float64(a.retries))
	local := counterDelta(before, after, mapreduce.MetricDispatchLocal)
	nonlocal := counterDelta(before, after, mapreduce.MetricDispatchNonlocal)
	res.set("mapreduce.dispatch_local_share", ratio(local, local+nonlocal))
	res.set("mapreduce.remote_task_share", ratio(float64(a.dispatched), float64(a.tasks)))
}

// dataPlaneMetrics reads the worker data plane's traffic split from the
// system registry (all zero without a worker cluster).
func dataPlaneMetrics(res *result, before, after *obs.Snapshot) {
	local := counterDelta(before, after, mapreduce.MetricDFSLocalReads)
	remote := counterDelta(before, after, mapreduce.MetricDFSRemoteReads)
	res.set("dfs.local_read_share", ratio(local, local+remote))
	res.set("dfs.master_egress_mb", counterDelta(before, after, mapreduce.MetricMasterEgress)/(1<<20))
}
