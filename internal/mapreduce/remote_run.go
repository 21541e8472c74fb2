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
// each map task's winning spill and the shard-loss recovery path — a
// singleflight re-run of a map task whose shards died with their worker,
// published under the reissue attempt range with its metrics suppressed so
// the task still counts exactly once. Every attempt runs on a worker: when
// the pool empties, submit fails with errPoolEmpty, the phase fails, and
// runJob restarts the whole job in process.
type remoteRun struct {
	m      *Master
	rj     *runningJob
	splits []*Split
	id     int64
	// ctx ends when the job's context does or the run closes; recovery
	// work (re-issues, their backoffs) stops with it.
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	locs        []shardLoc
	reissue     map[int]*reissueCall
	reissueNext int
}

// shardLoc names the worker holding one map task's winning shards.
type shardLoc struct {
	addr    string
	attempt int
	worker  int64
}

// reissueCall is the singleflight slot for one task's shard recovery.
type reissueCall struct {
	done chan struct{}
	err  error
}

// startRemote registers a pool run with the master, replicating the job's
// input blocks first so locality-aware assignment has holders to match.
func startRemote(ctx context.Context, m *Master, rj *runningJob, splits []*Split) *remoteRun {
	r := &remoteRun{
		m: m, rj: rj, splits: splits,
		locs:    make([]shardLoc, len(splits)),
		reissue: make(map[int]*reissueCall),
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	m.plane.ensureReplicated(splits)
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
// spilled on the workers and each reducer fetches its shard directly from
// every holder.
func (r *remoteRun) shuffle() {}

// setLoc records the winning attempt's shard holder for a map task.
func (r *remoteRun) setLoc(task int, loc shardLoc) {
	r.mu.Lock()
	r.locs[task] = loc
	r.mu.Unlock()
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
	rj := r.rj
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

// mapAttempt executes one map attempt on a worker.
func (r *remoteRun) mapAttempt(task, attempt int) (attemptResult, error) {
	split := r.splits[task]
	res, err := r.send(&dispatch{
		phase: TaskMap, task: task, attempt: attempt,
		holders: r.m.plane.holdersFor(split),
		meta:    r.m.ServeMeta(split),
	})
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{
		out: res.out, sel: res.sel, tm: obs.ImportTaskMetrics(res.metrics),
		publish: func() {
			r.setLoc(task, shardLoc{addr: res.workerAddr, attempt: attempt, worker: res.workerID})
		},
	}, nil
}

// reduceAttempt executes one reduce attempt on a worker. A fetch failure
// (dead holder, torn spill) triggers shard recovery and fails the attempt
// transiently; the scheduler's retry then reads the re-issued locations.
func (r *remoteRun) reduceAttempt(ri, attempt int) (attemptResult, error) {
	res, err := r.send(&dispatch{phase: TaskReduce, task: ri, attempt: attempt, sources: r.sources()})
	if err != nil {
		if len(res.lostMaps) > 0 {
			r.recoverMaps(res.lostMaps)
		}
		return attemptResult{}, err
	}
	return attemptResult{out: res.out, tm: obs.ImportTaskMetrics(res.metrics)}, nil
}

// onWorkerLost re-runs the completed map tasks whose winning shards lived
// on the dead worker. Map-only jobs skip it: their direct output is
// already on the master and their shards are never fetched.
func (r *remoteRun) onWorkerLost(workerID int64) {
	if r.rj.kf.Reduce == nil || r.ctx.Err() != nil {
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
	rj := r.rj
	s := newSched(r.m.c, rj, obs.PhaseMap, r.m.c.RetryPolicy(), "")
	s.in = nil // a re-issue draws no fate of its own; it keeps the seed for its backoff jitter
	ts := newSchedTask(task, fmt.Sprintf("map-%d", task), r.splits[task].Partition)
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
		row := res.row(obs.PhaseMap)
		span.RecordsIn, span.RecordsOut, span.Bytes = row.RecordsIn, row.RecordsOut, row.Bytes
		endAs(span, obs.OutcomeReissue)
		rj.reg.Inc(CounterReissuedMaps, 1)
		r.m.flog.Append(fault.Event{Phase: TaskMap, Task: task, Attempt: attempt, Kind: "reissue"})
		return nil
	})
}
