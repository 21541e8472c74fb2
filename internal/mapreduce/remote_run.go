package mapreduce

import (
	"context"
	"fmt"
	"sync"

	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/obs"
)

// remoteRun is the worker-pool runner: the per-job state of remote
// execution. It holds the shard-location table naming the worker behind
// each map task's winning spill, the master-held shard store for attempts
// that ran in process (no live worker, and re-issues then), and the
// shard-loss recovery path — a singleflight re-run of a map task whose
// shards died with their worker, published under the reissue attempt
// range with its metrics suppressed so the task still counts exactly
// once. With no worker live an attempt is the in-process runner's, plus
// "keep the shard frames on the master".
type remoteRun struct {
	m     *Master
	local *localRunner
	id    int64
	root  int64
	// ctx ends when the job's context does or the run closes; recovery
	// work (re-issues, their backoffs) stops with it.
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	locs         []shardLoc
	masterShards map[shardKey][]byte
	reissue      map[int]*reissueCall
	reissueNext  int
}

// shardLoc names the holder of one map task's winning shards.
type shardLoc struct {
	addr    string
	attempt int
	worker  int64 // 0 when master-held
}

type shardKey struct {
	task, attempt, reduce int
}

// reissueCall is the singleflight slot for one task's shard recovery.
type reissueCall struct {
	done chan struct{}
	err  error
}

// startRemote registers a pool run with the master, replicating the job's
// input blocks first so locality-aware assignment has holders to match.
func startRemote(ctx context.Context, m *Master, local *localRunner, root int64) *remoteRun {
	r := &remoteRun{
		m: m, local: local, root: root,
		locs:         make([]shardLoc, len(local.splits)),
		masterShards: make(map[shardKey][]byte),
		reissue:      make(map[int]*reissueCall),
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	m.plane.ensureReplicated(local.splits)
	m.registerRun(r)
	return r
}

// close detaches the run from the master: recovery stops, outstanding
// dispatches fail so nothing blocks on a job that already ended, and
// workers are told to drop the job's spill files.
func (r *remoteRun) close() {
	r.cancel()
	r.m.unregisterRun(r)
	r.m.dropJob(r.id)
}

// shuffle is a no-op: map shards never pass through the master. They sit
// spilled on the workers (or in the master shard store) and each reducer
// fetches its shard directly from every holder.
func (r *remoteRun) shuffle() {}

// setLoc records the winning attempt's shard holder for a map task.
func (r *remoteRun) setLoc(task int, loc shardLoc) {
	r.mu.Lock()
	r.locs[task] = loc
	r.mu.Unlock()
}

// storeMasterShards keeps an in-process attempt's sealed shard frames so
// reducers (remote or local) can fetch them from the master.
func (r *remoteRun) storeMasterShards(task, attempt int, frames [][]byte) {
	r.mu.Lock()
	for ri, frame := range frames {
		r.masterShards[shardKey{task, attempt, ri}] = frame
	}
	r.mu.Unlock()
}

// masterShard serves one master-held frame to Shards.Fetch.
func (r *remoteRun) masterShard(task, attempt, reduce int) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	frame, ok := r.masterShards[shardKey{task, attempt, reduce}]
	return frame, ok
}

// sources snapshots the shard-location table in map-task order — the
// fetch list shipped with every reduce dispatch. Re-issued shards show up
// here automatically on the reduce retry.
func (r *remoteRun) sources() []ShardSource {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardSource, len(r.locs))
	for i, loc := range r.locs {
		out[i] = ShardSource{Task: i, Attempt: loc.attempt, Addr: loc.addr}
	}
	return out
}

// send submits one attempt to the pool and waits for its outcome.
func (r *remoteRun) send(d *dispatch) (dispatchResult, error) {
	rj := r.local.rj
	d.jobID, d.jobKind, d.conf, d.nshards = r.id, rj.job.Kind, rj.job.Conf, rj.nshards
	if rj.kf.Reduce == nil {
		d.nshards = 0 // map-only: no reducer will fetch a shard, so the worker spills none
	}
	d.resultCh = make(chan dispatchResult, 1)
	if err := r.m.submit(d); err != nil {
		return dispatchResult{}, err
	}
	res := <-d.resultCh
	if res.workerLost {
		rj.reg.Inc(CounterWorkerLost, 1)
	}
	return res, res.err
}

// mapAttempt executes one map attempt on a worker — or, when none is live
// (total worker loss mid-job), through the in-process runner with the
// shards sealed into the master's store.
func (r *remoteRun) mapAttempt(task, attempt int) (attemptResult, error) {
	if r.m.LiveWorkers() == 0 {
		res, shards, err := r.local.execMap(task, attempt)
		if err != nil {
			return attemptResult{}, err
		}
		frames := make([][]byte, len(shards))
		for ri, shard := range shards {
			if frames[ri], err = EncodeShard(shard); err != nil {
				return attemptResult{}, err
			}
		}
		res.publish = func() {
			r.storeMasterShards(task, attempt, frames)
			r.setLoc(task, shardLoc{addr: r.m.Addr(), attempt: attempt})
		}
		return res, nil
	}
	split := r.local.splits[task]
	res, err := r.send(&dispatch{
		phase: TaskMap, task: task, attempt: attempt,
		holders: r.m.plane.holdersFor(split),
		meta:    r.m.ServeMeta(split),
	})
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{
		out: res.out, pairs: res.pairs, bytes: res.bytes,
		recordsIn: res.recordsIn, tm: obs.ImportTaskMetrics(res.metrics),
		publish: func() {
			r.setLoc(task, shardLoc{addr: res.workerAddr, attempt: attempt, worker: res.workerID})
		},
	}, nil
}

// reduceAttempt executes one reduce attempt on a worker — or, when none
// is live, through the in-process runner over shards the master fetches
// itself. A fetch failure (dead holder, torn spill) triggers shard
// recovery and fails the attempt transiently; the scheduler's retry then
// reads the re-issued locations.
func (r *remoteRun) reduceAttempt(ri, attempt int) (attemptResult, error) {
	sources := r.sources()
	if r.m.LiveWorkers() == 0 {
		taskShards := make([][]Pair, len(sources))
		var lost []int
		for i, src := range sources {
			pairs, err := r.fetchShard(src, ri)
			if err != nil {
				lost = append(lost, src.Task)
				continue
			}
			taskShards[i] = pairs
		}
		if len(lost) > 0 {
			r.recoverMaps(lost)
			return attemptResult{}, fault.Transientf("mapreduce: reduce %d lost shards of %d map task(s)", ri, len(lost))
		}
		return r.local.execReduce(GroupShards(taskShards), attempt)
	}
	res, err := r.send(&dispatch{phase: TaskReduce, task: ri, attempt: attempt, sources: sources})
	if err != nil {
		if len(res.lostMaps) > 0 {
			r.recoverMaps(res.lostMaps)
		}
		return attemptResult{}, err
	}
	return attemptResult{out: res.out, recordsIn: res.recordsIn, tm: obs.ImportTaskMetrics(res.metrics)}, nil
}

// fetchShard reads one map shard for the master's own (fallback) reduce:
// master-held frames come straight from the store, worker-held ones over
// Shards.Fetch.
func (r *remoteRun) fetchShard(src ShardSource, reduce int) ([]Pair, error) {
	if src.Addr == "" {
		return nil, fmt.Errorf("mapreduce: map task %d has no shard location", src.Task)
	}
	if src.Addr == r.m.Addr() {
		frame, ok := r.masterShard(src.Task, src.Attempt, reduce)
		if !ok {
			return nil, fmt.Errorf("mapreduce: master holds no shard m%d.a%d.r%d", src.Task, src.Attempt, reduce)
		}
		return DecodeShard(frame)
	}
	var all []Pair
	err := StreamShardFrom(r.ctx, r.m.peers, src.Addr, r.id, src.Task, src.Attempt, reduce, func(batch []Pair) error {
		all = append(all, batch...)
		return nil
	})
	return all, err
}

// onWorkerLost re-runs the completed map tasks whose winning shards lived
// on the dead worker. Map-only jobs skip it: their direct output is
// already on the master and their shards are never fetched.
func (r *remoteRun) onWorkerLost(workerID int64) {
	if r.local.rj.kf.Reduce == nil || r.ctx.Err() != nil {
		return
	}
	r.mu.Lock()
	var tasks []int
	for t, loc := range r.locs {
		if loc.worker == workerID && loc.addr != "" {
			tasks = append(tasks, t)
		}
	}
	r.mu.Unlock()
	if len(tasks) > 0 {
		r.recoverMaps(tasks)
	}
}

// recoverMaps re-runs the given map tasks, one singleflight per task:
// the proactive path (lease expiry) and the lazy path (reduce fetch
// failure) coalesce onto one re-execution.
func (r *remoteRun) recoverMaps(tasks []int) {
	var wg sync.WaitGroup
	for _, t := range tasks {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ensureShards(t)
		}()
	}
	wg.Wait()
}

// ensureShards re-runs one map task under singleflight.
func (r *remoteRun) ensureShards(task int) error {
	if r.ctx.Err() != nil {
		return nil
	}
	r.mu.Lock()
	if call, ok := r.reissue[task]; ok {
		r.mu.Unlock()
		<-call.done
		return call.err
	}
	call := &reissueCall{done: make(chan struct{})}
	r.reissue[task] = call
	r.mu.Unlock()

	call.err = r.reissueMap(task)
	close(call.done)

	r.mu.Lock()
	delete(r.reissue, task)
	r.mu.Unlock()
	return call.err
}

// reissueMap re-executes one already-won map task because its shards were
// lost, under the scheduler's retry loop but with no injected fate and
// attempts numbered from the run's reissue range. The re-run publishes
// new shards and a span with OutcomeReissue, but its metrics buffer is
// dropped: the task's counters were merged when its original attempt won,
// and merging the re-run would double-count it.
func (r *remoteRun) reissueMap(task int) error {
	rj := r.local.rj
	s := newSched(r.m.c, rj, obs.PhaseMap, r.root, r.m.c.RetryPolicy(), "")
	s.in = nil // a re-issue draws no fate of its own; it keeps the seed for its backoff jitter
	ts := newSchedTask(task, fmt.Sprintf("map-%d", task), r.local.splits[task].Partition)
	ts.nextAttempt = func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.reissueNext++
		return reissueAttempt + r.reissueNext
	}
	return s.retry(r.ctx, ts, func(span *obs.Span, attempt int, _ fault.Decision) error {
		res, err := r.mapAttempt(task, attempt)
		if err != nil {
			return err
		}
		res.publish()
		span.RecordsIn = res.recordsIn
		span.RecordsOut = res.pairs + int64(len(res.out))
		span.Bytes = res.bytes
		span.Finish(obs.OutcomeReissue)
		rj.reg.Inc(CounterReissuedMaps, 1)
		r.m.flog.Append(fault.Event{Phase: TaskMap, Task: task, Attempt: attempt, Kind: "reissue"})
		return nil
	})
}
