package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/obs"
)

// This file is the master side of the distributed runtime: it tracks
// worker processes under heartbeat leases, hands out task dispatches over
// a pull queue, marks a worker dead when its lease expires (failing its
// in-flight dispatches with a transient error so the scheduler re-issues
// them), and serves block frames no worker replica holds. It holds no map
// shard: a pool run whose last worker dies fails with errPoolEmpty and
// restarts in process. It also hosts the real-process chaos mode: at a
// seeded (phase, task, attempt) decision point it SIGKILLs a live worker,
// so fault tolerance is exercised by genuine process death rather than
// injected errors alone.

// Worker lifecycle metric names, written to the registry passed in
// MasterOptions (the system registry, so a serving process exports them
// at /metrics as shadoop_mr_workers_registered_total etc.).
const (
	MetricWorkersRegistered = "mr.workers.registered"
	MetricWorkersLost       = "mr.workers.lost"
	GaugeWorkersLive        = "mr.workers.live"
	GaugeHeartbeatsMissed   = "mr.heartbeats.missed"
)

// Job-level fault counters recorded by the remote execution path.
const (
	// CounterWorkerLost counts dispatches failed because their worker's
	// lease expired mid-task; each one turns into a scheduler retry.
	CounterWorkerLost = "fault.worker.lost"
	// CounterReissuedMaps counts map tasks re-executed because the worker
	// holding their winning attempt's shards died before every reducer
	// fetched them. The re-run's metrics are suppressed (the task already
	// counted once); only this counter and the reissue span record it.
	CounterReissuedMaps = "fault.reissue.map"
)

// errPoolEmpty fails a pool run's dispatches once no worker is left to
// run them: submit returns it when no worker is live, the queue that
// markDead drains when the last worker dies finishes with it, and so does
// every dispatch Stop fails. It is permanent, so the scheduler does not
// retry: the phase fails, and runJob restarts the job in process.
var errPoolEmpty = errors.New("mapreduce: worker pool empty")

// reissueAttempt is the attempt coordinate base of shard-loss re-issues:
// disjoint from primary retries (0..) and speculative duplicates (1000..)
// so every re-issue is distinguishable in traces and draws independent
// backoff jitter.
const reissueAttempt = 2000

// MasterOptions configures a master runtime.
type MasterOptions struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// HeartbeatEvery is the interval workers are told to heartbeat at
	// (default 100ms). Lease is how long past the last sign of life the
	// master waits before declaring a worker dead (default 10x heartbeat).
	HeartbeatEvery time.Duration
	Lease          time.Duration
	// Metrics, when set, receives the worker lifecycle counters/gauges —
	// pass the system registry so a serving process exports them.
	Metrics *obs.Registry
	// EnableKill arms the injector's worker-kill mode: without it the
	// master never signals a process, whatever the fault plan says.
	EnableKill bool
	// KillFn overrides how a victim pid is killed (tests substitute a
	// goroutine-worker stopper). Nil means SIGKILL, skipped when the pid
	// is the master's own process (in-process test workers).
	KillFn func(pid int) error
	// RecordHeartbeats logs one event per Heartbeat RPC into the
	// heartbeat log (see HeartbeatLog) — the JSONL artifact the CI e2e
	// step uploads. Off by default: a busy pool heartbeats constantly.
	RecordHeartbeats bool
	// Replication is the replica factor of the data plane: each job's
	// input blocks are pushed to this many workers before its maps run,
	// map dispatches prefer replica holders, and workers read input
	// locally or peer-to-peer instead of from the master. Zero (the
	// default) places no replicas: every block is read from the master.
	Replication int
}

func (o MasterOptions) withDefaults() MasterOptions {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 100 * time.Millisecond
	}
	if o.Lease <= 0 {
		o.Lease = 10 * o.HeartbeatEvery
	}
	return o
}

// workerState is the master's view of one registered worker.
type workerState struct {
	id       int64
	addr     string
	pid      int
	canServe bool
	live     bool
	lastBeat time.Time
	inflight map[int64]*dispatch
}

// dispatchResult is the outcome of one dispatched attempt.
type dispatchResult struct {
	workerID   int64
	workerAddr string

	out     []string
	sel     []Selection
	metrics obs.TaskMetricsWire

	lostMaps   []int
	workerLost bool
	err        error
}

// dispatch is one task attempt travelling through the master's queue.
type dispatch struct {
	id      int64
	jobID   int64
	phase   string
	task    int
	attempt int
	jobKind string
	conf    map[string]string
	nshards int
	sources []ShardSource
	// holders are the worker ids holding a replica of this map task's
	// split — the locality set the pending queue matches pollers against.
	holders []int64
	// meta is the replica-aware split descriptor shipped in a map
	// assignment.
	meta *WireSplitMeta

	resultCh chan dispatchResult
	finished sync.Once
	isDone   atomic.Bool
}

// holds reports whether workerID is in the dispatch's locality set.
func (d *dispatch) holds(workerID int64) bool {
	for _, h := range d.holders {
		if h == workerID {
			return true
		}
	}
	return false
}

// finish delivers the result exactly once (a task may be failed by worker
// death and then reported by a late TaskDone from a process that was only
// presumed dead).
func (d *dispatch) finish(r dispatchResult) {
	d.finished.Do(func() {
		d.isDone.Store(true)
		d.resultCh <- r
	})
}

// done reports whether finish already ran.
func (d *dispatch) done() bool { return d.isDone.Load() }

// Master is the distributed runtime's coordinator.
type Master struct {
	c     *Cluster
	opts  MasterOptions
	ln    net.Listener
	flog  *fault.Log
	hblog *fault.Log

	// plane is the block-replica data plane.
	plane *dataPlane

	// ctx is the master's lifetime: Stop cancels it, which ends the loops
	// and every call the master itself has in flight through peers
	// (replica pushes, DropJob broadcasts).
	ctx    context.Context
	cancel context.CancelFunc
	peers  *Peers

	mu           sync.Mutex
	workers      map[int64]*workerState
	nextWorker   int64
	nextDispatch int64
	nextJob      int64
	dispatches   map[int64]*dispatch
	runs         map[int64]*remoteRun
	live         int
	// pending is the dispatch queue. A slice rather than a channel so an
	// assignment can scan for a dispatch local to the polling worker
	// instead of taking strict FIFO order; waitCh is closed (and
	// replaced) on every submit to wake long-polling workers.
	pending []*dispatch
	waitCh  chan struct{}
	closed  bool

	// epochSrc feeds DFS file epochs into heartbeat replies so serving
	// workers drop stale pinned partitions (see SetEpochSource).
	epochSrc func() map[string]int64

	// drops tracks the end-of-job DropJob broadcasts so Stop can wait for
	// them.
	drops sync.WaitGroup
}

// maxPending bounds the dispatch queue, matching the old channel buffer.
const maxPending = 4096

// StartMaster starts a master runtime listening for worker registrations.
// Jobs submitted to the cluster while at least one worker is live execute
// on the workers; with none they execute in process — the zero-config
// default, and where a job restarts if its last worker dies mid-run.
func (c *Cluster) StartMaster(opts MasterOptions) (*Master, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		c:          c,
		opts:       opts,
		ln:         ln,
		flog:       &fault.Log{},
		hblog:      &fault.Log{},
		workers:    make(map[int64]*workerState),
		dispatches: make(map[int64]*dispatch),
		runs:       make(map[int64]*remoteRun),
		waitCh:     make(chan struct{}),
		peers:      NewPeers(),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.plane = newDataPlane(m, opts.Replication)
	go ServeRPC(m.ctx, ln, map[string]Handler{
		MasterService + ".Register":  Handle(m.Register),
		MasterService + ".Heartbeat": Handle(m.Heartbeat),
		MasterService + ".GetTask":   Handle(m.GetTask),
		MasterService + ".TaskDone":  Handle(m.TaskDone),
		ShardService + ".ReadBlock":  Handle(m.ReadBlock),
	}, nil)
	go m.leaseMonitor()
	c.mu.Lock()
	c.master = m
	c.mu.Unlock()
	return m, nil
}

// Master returns the cluster's running master runtime (nil when none was
// started — the common, fully in-process configuration).
func (c *Cluster) Master() *Master {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.master
}

// Addr returns the master's listen address, the value workers dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Peers returns the master's connection pool — how the serving layer
// reaches the workers the master placed replicas on.
func (m *Master) Peers() *Peers { return m.peers }

// FaultLog returns the master's runtime fault-event log: registrations,
// lease expiries, kills and re-issues.
func (m *Master) FaultLog() *fault.Log { return m.flog }

// HeartbeatLog returns the heartbeat event log (populated only under
// MasterOptions.RecordHeartbeats).
func (m *Master) HeartbeatLog() *fault.Log { return m.hblog }

// Stop shuts the master down: the listener closes, queued and in-flight
// dispatches fail with errPoolEmpty (jobs still running restart in
// process), the cluster reverts to in-process execution, and the master's
// own calls in flight (DropJob broadcasts, replica pushes) are cancelled —
// Stop waits for their goroutines, never for a worker to answer.
func (m *Master) Stop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var pending []*dispatch
	for _, d := range m.dispatches {
		pending = append(pending, d)
	}
	m.dispatches = make(map[int64]*dispatch)
	m.pending = nil
	m.live = 0
	for _, ws := range m.workers {
		ws.live = false
	}
	m.mu.Unlock()
	m.cancel()
	m.ln.Close()
	for _, d := range pending {
		d.finish(dispatchResult{err: errPoolEmpty})
	}
	m.c.mu.Lock()
	if m.c.master == m {
		m.c.master = nil
	}
	m.c.mu.Unlock()
	m.drops.Wait()
	m.peers.Close()
}

// dropJob tells every live worker to garbage-collect a finished job's
// spill files — best-effort and in the background: a worker that misses
// the drop only leaks until its own teardown.
func (m *Master) dropJob(jobID int64) {
	addrs := make(map[string]bool)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for _, ws := range m.workers {
		if ws.live {
			addrs[ws.addr] = true
		}
	}
	// Added under the lock Stop takes to close, so no Add races its Wait.
	m.drops.Add(len(addrs))
	m.mu.Unlock()
	for addr := range addrs {
		go func(addr string) {
			defer m.drops.Done()
			_ = m.peers.Call(m.ctx, addr, ShardService+".DropJob", &DropJobArgs{JobID: jobID}, &DropJobReply{}) // best-effort
		}(addr)
	}
}

// LiveWorkers returns the number of workers currently under lease.
func (m *Master) LiveWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// Workers returns the ids of the currently live workers.
func (m *Master) WorkerIDs() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int64
	for id, ws := range m.workers {
		if ws.live {
			ids = append(ids, id)
		}
	}
	return ids
}

// liveWorkerIDs is WorkerIDs in sorted order — the data plane's stable
// placement candidate list.
func (m *Master) liveWorkerIDs() []int64 {
	ids := m.WorkerIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// workerAddr resolves a live worker's shard-serving address ("" when the
// worker is unknown or dead).
func (m *Master) workerAddr(id int64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.workers[id]
	if ws == nil || !ws.live {
		return ""
	}
	return ws.addr
}

// leaseMonitor expires workers that stopped heartbeating and maintains
// the live/missed gauges.
func (m *Master) leaseMonitor() {
	tick := m.opts.Lease / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		var expired []*workerState
		missed := 0
		m.mu.Lock()
		for _, ws := range m.workers {
			if !ws.live {
				continue
			}
			since := now.Sub(ws.lastBeat)
			missed += int(since / m.opts.HeartbeatEvery)
			if since > m.opts.Lease {
				expired = append(expired, ws)
			}
		}
		m.mu.Unlock()
		if r := m.opts.Metrics; r != nil {
			r.SetGauge(GaugeHeartbeatsMissed, float64(missed))
		}
		for _, ws := range expired {
			m.markDead(ws)
		}
	}
}

// markDead declares a worker dead: its lease is revoked, its in-flight
// dispatches fail transiently (the scheduler re-issues them), and, while
// a worker is left, every active run is told so completed map tasks whose
// shards died with the worker are re-run. When the last worker dies, the
// queue is drained with errPoolEmpty, so waiting dispatches fail their
// jobs over to the in-process runner instead of stalling on a poll nobody
// makes.
func (m *Master) markDead(ws *workerState) {
	m.mu.Lock()
	if !ws.live {
		m.mu.Unlock()
		return
	}
	ws.live = false
	m.live--
	inflight := ws.inflight
	ws.inflight = make(map[int64]*dispatch)
	for id := range inflight {
		delete(m.dispatches, id)
	}
	var drained []*dispatch
	if m.live == 0 {
		for _, d := range m.pending {
			if !d.done() {
				delete(m.dispatches, d.id)
				drained = append(drained, d)
			}
		}
		m.pending = nil
	}
	live := m.live
	var runs []*remoteRun
	if live > 0 { // with no worker left a re-issue could only fail: the runs fail over
		for _, r := range m.runs {
			runs = append(runs, r)
		}
	}
	m.mu.Unlock()

	if r := m.opts.Metrics; r != nil {
		r.Inc(MetricWorkersLost, 1)
		r.SetGauge(GaugeWorkersLive, float64(live))
	}
	m.flog.Append(fault.Event{Kind: "worker-lost", Worker: ws.id})
	lost := fault.Transientf("mapreduce: worker %d lost (lease expired)", ws.id)
	for _, d := range inflight {
		d.finish(dispatchResult{err: lost, workerLost: true})
	}
	for _, d := range drained {
		d.finish(dispatchResult{err: errPoolEmpty})
	}
	// Re-replicate the dead worker's blocks before the runs react, so a
	// re-issued map already sees the restored holder set. markDead runs
	// only on the lease monitor (and never holds m.mu here), so the
	// synchronous pushes cannot deadlock or race another markDead.
	m.plane.onWorkerLost(ws.id)
	for _, run := range runs {
		go run.onWorkerLost(ws.id)
	}
}

// submit queues a dispatch for the next polling worker. It fails fast
// with errPoolEmpty when no worker is live (Stop zeroes the count).
func (m *Master) submit(d *dispatch) error {
	m.mu.Lock()
	if m.live == 0 {
		m.mu.Unlock()
		return errPoolEmpty
	}
	if len(m.pending) >= maxPending {
		m.mu.Unlock()
		return fault.Transientf("mapreduce: dispatch queue full")
	}
	m.nextDispatch++
	d.id = m.nextDispatch
	m.pending = append(m.pending, d)
	m.dispatches[d.id] = d
	// Wake every long-polling worker; each re-scans the pending list.
	close(m.waitCh)
	m.waitCh = make(chan struct{})
	m.mu.Unlock()
	return nil
}

// takePendingLocked removes and returns the dispatch the polling worker
// should run: the first pending dispatch whose replica-holder set
// contains the worker, or — with none local to it — the oldest pending
// dispatch (locality is a preference, not an assignment constraint).
// Dispatches finished while queued (worker-death drain, run teardown)
// are dropped on the way. Callers hold m.mu.
func (m *Master) takePendingLocked(workerID int64) *dispatch {
	alive := m.pending[:0]
	for _, d := range m.pending {
		if !d.done() {
			alive = append(alive, d)
		}
	}
	m.pending = alive
	idx := -1
	for i, d := range m.pending {
		if d.holds(workerID) {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(m.pending) == 0 {
			return nil
		}
		idx = 0
	}
	d := m.pending[idx]
	m.pending = append(m.pending[:idx], m.pending[idx+1:]...)
	return d
}

// registerRun attaches a job run to the master, allocating its job id.
func (m *Master) registerRun(r *remoteRun) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextJob++
	r.id = m.nextJob
	m.runs[r.id] = r
	return r.id
}

// unregisterRun detaches a finished run and fails its outstanding
// dispatches so no goroutine waits on a result that will never come.
func (m *Master) unregisterRun(r *remoteRun) {
	m.mu.Lock()
	delete(m.runs, r.id)
	var pending []*dispatch
	for id, d := range m.dispatches {
		if d.jobID == r.id {
			delete(m.dispatches, id)
			pending = append(pending, d)
		}
	}
	m.mu.Unlock()
	for _, d := range pending {
		d.finish(dispatchResult{err: fault.Transientf("mapreduce: job run ended")})
	}
}

// renewLease stamps a sign of life from the worker.
func (m *Master) renewLease(workerID int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.workers[workerID]
	if ws == nil || !ws.live {
		return false
	}
	ws.lastBeat = time.Now()
	return true
}

// maybeKill consults the fault plan's worker-kill mode for a dispatch
// being assigned and, when the seeded decision fires, kills the victim:
// the assignee (death during map or reduce execution) or, for reduce
// dispatches under WorkerKillHolder, a live shard holder other than the
// assignee (death during shuffle fetch).
func (m *Master) maybeKill(d *dispatch, assignee *workerState) {
	if !m.opts.EnableKill {
		return
	}
	in := m.c.Injector()
	if in == nil || !in.DecideKill(d.phase, d.task, d.attempt) {
		return
	}
	victim := assignee
	if in.Plan().WorkerKillReplicaHolder && d.phase == TaskMap && len(d.holders) > 0 {
		// Kill a live replica holder of the map task's split — possibly
		// the assignee itself (locality makes that the common case) —
		// so the read path's peer/master fallback and the plane's
		// re-replication are what the chaos mode exercises.
		m.mu.Lock()
		for _, h := range d.holders {
			if ws := m.workers[h]; ws != nil && ws.live {
				victim = ws
				break
			}
		}
		m.mu.Unlock()
	}
	if in.Plan().WorkerKillHolder && d.phase == TaskReduce {
		m.mu.Lock()
		for _, src := range d.sources {
			for _, ws := range m.workers {
				if ws.live && ws.addr == src.Addr && ws.id != assignee.id {
					victim = ws
					break
				}
			}
			if victim != assignee {
				break
			}
		}
		m.mu.Unlock()
	}
	m.flog.Append(fault.Event{Phase: d.phase, Task: d.task, Attempt: d.attempt, Kind: "worker-kill", Worker: victim.id})
	if kf := m.opts.KillFn; kf != nil {
		_ = kf(victim.pid)
		return
	}
	if victim.pid > 0 && victim.pid != os.Getpid() {
		_ = syscall.Kill(victim.pid, syscall.SIGKILL)
	}
}

// Register admits a worker into the pool. It and the next three methods
// are the control-plane calls workers make (MasterService).
func (m *Master) Register(_ context.Context, args *RegisterArgs, reply *RegisterReply) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("mapreduce: master stopped")
	}
	m.nextWorker++
	id := m.nextWorker
	m.workers[id] = &workerState{
		id: id, addr: args.Addr, pid: args.PID, canServe: args.CanServe,
		live: true, lastBeat: time.Now(),
		inflight: make(map[int64]*dispatch),
	}
	m.live++
	live := m.live
	m.mu.Unlock()
	if r := m.opts.Metrics; r != nil {
		r.Inc(MetricWorkersRegistered, 1)
		r.SetGauge(GaugeWorkersLive, float64(live))
	}
	m.flog.Append(fault.Event{Kind: "worker-register", Worker: id})
	reply.WorkerID = id
	reply.HeartbeatEvery = m.opts.HeartbeatEvery
	reply.Lease = m.opts.Lease
	return nil
}

// Heartbeat renews the worker's lease. OK=false tells a worker the master
// forgot it (lease expired); it must re-register.
func (m *Master) Heartbeat(_ context.Context, args *HeartbeatArgs, reply *HeartbeatReply) error {
	reply.OK = m.renewLease(args.WorkerID)
	if reply.OK {
		reply.Epochs = m.epochSnapshot()
	}
	if m.opts.RecordHeartbeats {
		kind := "heartbeat"
		if !reply.OK {
			kind = "heartbeat-rejected"
		}
		m.hblog.Append(fault.Event{Kind: kind, Worker: args.WorkerID})
	}
	return nil
}

// GetTask long-polls for work. The poll doubles as a heartbeat. The
// pending list is scanned for a dispatch local to this worker (one whose
// split replicas it holds) before falling back to the oldest dispatch.
// The poll ends with its call: a poller that is gone takes nothing.
func (m *Master) GetTask(ctx context.Context, args *GetTaskArgs, reply *TaskAssignment) error {
	if !m.renewLease(args.WorkerID) {
		reply.Phase = TaskNone
		return nil
	}
	// A long-poll lasts one heartbeat interval: the poll doubles as one.
	deadline := time.NewTimer(m.opts.HeartbeatEvery)
	defer deadline.Stop()
	for ctx.Err() == nil {
		m.mu.Lock()
		ws := m.workers[args.WorkerID]
		if ws == nil || !ws.live {
			// The poller died between lease renewal and the scan; it
			// takes nothing.
			m.mu.Unlock()
			reply.Phase = TaskNone
			return nil
		}
		d := m.takePendingLocked(args.WorkerID)
		if d != nil {
			ws.inflight[d.id] = d
			m.mu.Unlock()
			if r := m.opts.Metrics; r != nil {
				r.Inc(MetricTasksDispatched, 1)
				if d.phase == TaskMap {
					if d.holds(args.WorkerID) {
						r.Inc(MetricDispatchLocal, 1)
					} else {
						r.Inc(MetricDispatchNonlocal, 1)
					}
				}
			}
			m.maybeKill(d, ws)
			reply.DispatchID = d.id
			reply.Phase = d.phase
			reply.JobID = d.jobID
			reply.Task = d.task
			reply.Attempt = d.attempt
			reply.JobKind = d.jobKind
			reply.Conf = d.conf
			reply.NumShards = d.nshards
			reply.Sources = d.sources
			reply.Meta = d.meta
			return nil
		}
		wake := m.waitCh
		m.mu.Unlock()
		select {
		case <-wake:
			// A submit happened; rescan.
		case <-deadline.C:
			reply.Phase = TaskNone
			return nil
		case <-ctx.Done():
		}
	}
	reply.Phase = TaskNone
	return nil
}

// TaskDone receives an attempt's outcome and routes it to the waiting
// dispatcher. Reports for dispatches already failed (presumed-dead
// worker, abandoned deadline attempt, finished run) are dropped.
func (m *Master) TaskDone(_ context.Context, args *TaskDoneArgs, reply *TaskDoneReply) error {
	m.renewLease(args.WorkerID)
	m.mu.Lock()
	d := m.dispatches[args.DispatchID]
	var addr string
	if d != nil {
		delete(m.dispatches, d.id)
		if ws := m.workers[args.WorkerID]; ws != nil {
			delete(ws.inflight, d.id)
			addr = ws.addr
		}
	}
	m.mu.Unlock()
	if reg := m.opts.Metrics; reg != nil {
		// Runtime traffic accounting from the attempt's read path; these
		// live in the master's system registry, never the job registry.
		if args.LocalReads > 0 {
			reg.Inc(MetricDFSLocalReads, args.LocalReads)
			reg.Inc(MetricDFSLocalBytes, args.LocalBytes)
		}
		if args.RemoteReads > 0 {
			reg.Inc(MetricDFSRemoteReads, args.RemoteReads)
			reg.Inc(MetricDFSRemoteBytes, args.RemoteBytes)
		}
	}
	if d == nil {
		return nil
	}
	res := dispatchResult{
		workerID:   args.WorkerID,
		workerAddr: addr,
		out:        args.Out,
		sel:        args.Selected,
		metrics:    args.Metrics,
		lostMaps:   args.LostMaps,
	}
	if args.Err != "" {
		err := fmt.Errorf("mapreduce: remote %s task %d: %s", d.phase, d.task, args.Err)
		if args.Transient {
			res.err = fault.Transient(err)
		} else {
			res.err = err
		}
	}
	d.finish(res)
	return nil
}

// ReadBlock serves, under ShardService, a block's sealed frame from the
// master to a worker that reached no replica — the terminal rung of the
// worker read chain (own replica, peers, master), and at replication 0 the
// only one.
func (m *Master) ReadBlock(_ context.Context, args *ReadBlockArgs, reply *ReadBlockReply) error {
	frame, err := m.plane.readFrame(dfs.BlockID(args.ID))
	if err != nil {
		return err
	}
	reply.Frame = frame
	if reg := m.opts.Metrics; reg != nil {
		reg.Inc(MetricMasterEgress, int64(len(frame)))
	}
	return nil
}
