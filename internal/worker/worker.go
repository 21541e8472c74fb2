// Package worker implements the worker side of the distributed runtime:
// a process that registers with a master over RPC, heartbeats under a
// lease, long-polls for map and reduce tasks, executes them against split
// blocks read from its own replica store, a peer or the master, spills
// intermediate shards to a local directory, and serves those spills to
// reducers. A worker holds no
// job state of its own — everything it needs to run a task arrives in the
// assignment (job kind, configuration, shard sources), so a worker that
// dies is replaced by re-issuing its tasks elsewhere, exactly as in
// Hadoop's tasktracker model.
package worker

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/serve"
)

// Config configures one worker process.
type Config struct {
	// Master is the master's RPC address (required).
	Master string
	// Dir is the spill directory for intermediate shards. Empty means a
	// fresh temporary directory, removed on Stop.
	Dir string
	// Tasks is the number of concurrently executing tasks (default 2).
	Tasks int
	// Listen is the shard-serving listen address (default "127.0.0.1:0").
	Listen string
	// FakePID, when nonzero, is reported to the master instead of the real
	// process id. Tests running workers as goroutines use it to give each
	// in-process worker a distinct identity for the kill harness.
	FakePID int
	// ServeTasks enables the query-executor role: the worker registers as
	// serve-capable, pins replica partitions into a local memory tier, and
	// answers the master's ExecRange/ExecKNN scatter calls.
	ServeTasks bool
	// ServeTierBytes is the serving tier's pin budget (default 64 MiB;
	// only meaningful with ServeTasks).
	ServeTierBytes int64
}

func (c Config) withDefaults() Config {
	if c.Tasks <= 0 {
		c.Tasks = 2
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.ServeTierBytes <= 0 {
		c.ServeTierBytes = 64 << 20
	}
	return c
}

// Worker is a running worker instance.
type Worker struct {
	cfg     Config
	ln      net.Listener
	dir     string
	ownsDir bool
	// tier is the serving-role pin tier (nil unless Config.ServeTasks):
	// replica partitions decoded and indexed in memory, keyed by
	// (file, epoch, partition) so a DFS rewrite can never be answered
	// from a stale pin.
	tier *serve.MemTier

	// ctx is the worker's lifetime: Stop cancels it, which ends the loops
	// and every call in flight through peers — to the master, and to the
	// peers whose replicas and spills this worker's tasks read.
	ctx    context.Context
	cancel context.CancelFunc
	peers  *mapreduce.Peers

	mu sync.Mutex
	id int64
	hb time.Duration
	// dropped marks jobs whose spills were garbage-collected; a late
	// spill from a straggler attempt of a dropped job is re-removed
	// instead of resurrecting the job directory.
	dropped map[int64]bool

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start launches a worker: it opens the shard server, registers with the
// master (failing fast if the master is unreachable), and spawns the
// heartbeat loop and task executors. The worker runs until Stop.
func Start(cfg Config) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.Master == "" {
		return nil, fmt.Errorf("worker: no master address")
	}
	dir, ownsDir := cfg.Dir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "shadoop-worker-")
		if err != nil {
			return nil, err
		}
		dir, ownsDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	w := &Worker{cfg: cfg, ln: ln, dir: dir, ownsDir: ownsDir, peers: mapreduce.NewPeers()}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	if cfg.ServeTasks {
		w.tier = serve.NewMemTier(cfg.ServeTierBytes, obs.NewRegistry())
	}
	go mapreduce.ServeRPC(w.ctx, ln, map[string]mapreduce.Handler{
		mapreduce.ShardService + ".FetchChunk": mapreduce.Handle(w.FetchChunk),
		mapreduce.ShardService + ".PushBlock":  mapreduce.Handle(w.PushBlock),
		mapreduce.ShardService + ".ReadBlock":  mapreduce.Handle(w.ReadBlock),
		mapreduce.ShardService + ".DropJob":    mapreduce.Handle(w.DropJob),
		mapreduce.ShardService + ".ExecRange":  mapreduce.Handle(w.ExecRange),
		mapreduce.ShardService + ".ExecKNN":    mapreduce.Handle(w.ExecKNN),
	}, w.serveGob)
	if err := w.register(); err != nil {
		w.Stop()
		return nil, err
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	for i := 0; i < cfg.Tasks; i++ {
		w.wg.Add(1)
		go w.executorLoop()
	}
	return w, nil
}

// Addr returns the worker's shard-serving address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// ID returns the worker id the master assigned at (re-)registration.
func (w *Worker) ID() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Dir returns the worker's spill directory.
func (w *Worker) Dir() string { return w.dir }

// Stop shuts the worker down: loops exit, the shard listener closes, and
// a temporary spill directory is removed. It does not wait for an
// in-flight task attempt to finish executing — from the master's point of
// view that is indistinguishable from a crash, which is the point: the
// lease expires and the task is re-issued.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		w.cancel()
		w.ln.Close()
		w.peers.Close()
		if w.ownsDir {
			os.RemoveAll(w.dir)
		}
	})
}

// Wait blocks until the worker's loops have exited (after Stop).
func (w *Worker) Wait() { w.wg.Wait() }

// callMaster is one control-plane call to the master.
func (w *Worker) callMaster(method string, args, reply mapreduce.WireMessage) error {
	return w.peers.Call(w.ctx, w.cfg.Master, mapreduce.MasterService+"."+method, args, reply)
}

// register (re-)registers with the master, taking a fresh worker id.
func (w *Worker) register() error {
	pid := w.cfg.FakePID
	if pid == 0 {
		pid = os.Getpid()
	}
	var reply mapreduce.RegisterReply
	args := mapreduce.RegisterArgs{Addr: w.Addr(), PID: pid, CanServe: w.cfg.ServeTasks}
	if err := w.callMaster("Register", &args, &reply); err != nil {
		return err
	}
	if reply.HeartbeatEvery <= 0 {
		reply.HeartbeatEvery = 100 * time.Millisecond
	}
	w.mu.Lock()
	w.id, w.hb = reply.WorkerID, reply.HeartbeatEvery
	w.mu.Unlock()
	return nil
}

// session snapshots the worker id and heartbeat interval of the current
// registration.
func (w *Worker) session() (int64, time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.hb
}

// reconnect re-establishes the master session after a connection failure
// or a lease the master expired, retrying until it succeeds or the worker
// stops.
func (w *Worker) reconnect() {
	for w.register() != nil {
		_, hb := w.session()
		if !w.sleep(hb) {
			return
		}
	}
}

// sleep waits d out; false means the worker stopped first.
func (w *Worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// heartbeatLoop renews the worker's lease. A failed call or a negative
// acknowledgement (the master expired our lease while we were alive but
// slow) triggers re-registration under a fresh id.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		id, hb := w.session()
		if !w.sleep(hb) {
			return
		}
		var reply mapreduce.HeartbeatReply
		err := w.callMaster("Heartbeat", &mapreduce.HeartbeatArgs{WorkerID: id}, &reply)
		if err != nil || !reply.OK {
			w.reconnect()
			continue
		}
		if w.tier != nil {
			// Epoch push: drop serving pins a DFS rewrite obsoleted. The
			// epoch-keyed tier already guarantees correctness; this frees
			// the memory before LRU pressure would.
			for file, epoch := range reply.Epochs {
				w.tier.DropStale(file, epoch)
			}
		}
	}
}

// executorLoop pulls and executes tasks until the worker stops. The
// GetTask long-poll doubles as a heartbeat, so a busy worker polling for
// its next task never expires.
func (w *Worker) executorLoop() {
	defer w.wg.Done()
	for w.ctx.Err() == nil {
		id, _ := w.session()
		var t mapreduce.TaskAssignment
		if err := w.callMaster("GetTask", &mapreduce.GetTaskArgs{WorkerID: id}, &t); err != nil {
			// The heartbeat loop owns reconnection; just back off.
			w.sleep(10 * time.Millisecond)
			continue
		}
		var res mapreduce.TaskDoneArgs
		switch t.Phase {
		case mapreduce.TaskMap:
			res = w.runMap(id, &t)
		case mapreduce.TaskReduce:
			res = w.runReduce(id, &t)
		default:
			continue
		}
		_ = w.callMaster("TaskDone", &res, &mapreduce.TaskDoneReply{})
	}
}

// fail fills a TaskDoneArgs failure report.
func fail(res *mapreduce.TaskDoneArgs, err error) mapreduce.TaskDoneArgs {
	res.Err = err.Error()
	res.Transient = fault.IsTransient(err)
	return *res
}

// runMap executes one map attempt: assemble the split — from the local
// replica store, peer holders, or the master, in that order — rebuild
// the job kind, run the shared attempt body, spill one sealed shard
// stream per reducer (none for a map-only job), and report the output,
// the metrics buffer and the read path's local/remote traffic split.
func (w *Worker) runMap(id int64, t *mapreduce.TaskAssignment) mapreduce.TaskDoneArgs {
	res := mapreduce.TaskDoneArgs{WorkerID: id, DispatchID: t.DispatchID}
	if t.Meta == nil {
		return fail(&res, fmt.Errorf("worker: map assignment without a split descriptor"))
	}
	split, st, err := w.assembleSplit(t.Meta)
	if err != nil {
		return fail(&res, err)
	}
	res.LocalReads, res.LocalBytes = st.localReads, st.localBytes
	res.RemoteReads, res.RemoteBytes = st.remoteReads, st.remoteBytes
	kf, err := mapreduce.BuildKind(t.JobKind, t.Conf)
	if err != nil {
		return fail(&res, err) // permanent: the worker cannot run this kind
	}
	shards, out, sel, tm, err := mapreduce.ExecMapAttempt(kf, t.Conf, split, t.NumShards, t.Attempt)
	if err != nil {
		return fail(&res, err)
	}
	// Every reducer's shard file is written, even when empty, so a fetch
	// never has to distinguish "no pairs" from "spill lost". A map-only
	// job has no reducers (NumShards 0) and leaves no file behind.
	for ri := 0; ri < t.NumShards; ri++ {
		var pairs []mapreduce.Pair
		if ri < len(shards) {
			pairs = shards[ri]
		}
		if err := w.writeSpill(t.JobID, t.Task, t.Attempt, ri, mapreduce.EncodeShard(pairs)); err != nil {
			return fail(&res, fault.Transient(err))
		}
	}
	res.Out, res.Selected = out, sel
	res.Metrics = tm.Export()
	return res
}

// runReduce executes one reduce attempt: stream every map task's shard
// from its holder (in map-task order, matching the in-process shuffle)
// and merge each decoded batch as it arrives, so merging overlaps the
// transfer of the rest of the shard. A shard that cannot be fetched —
// dead holder, torn spill — is reported in LostMaps so the master
// re-runs those map tasks before the retry; the half-merged groups die
// with the failed attempt.
func (w *Worker) runReduce(id int64, t *mapreduce.TaskAssignment) mapreduce.TaskDoneArgs {
	res := mapreduce.TaskDoneArgs{WorkerID: id, DispatchID: t.DispatchID}
	kf, err := mapreduce.BuildKind(t.JobKind, t.Conf)
	if err != nil {
		return fail(&res, err)
	}
	groups := make(map[string][]string)
	var lost []int
	for _, src := range t.Sources {
		if src.Addr == w.Addr() {
			pairs, err := w.readSpill(t.JobID, src.Task, src.Attempt, t.Task)
			if err != nil {
				lost = append(lost, src.Task)
				continue
			}
			mapreduce.MergePairs(groups, pairs)
			continue
		}
		err := mapreduce.StreamShardFrom(w.ctx, w.peers, src.Addr, t.JobID, src.Task, src.Attempt, t.Task,
			func(batch []mapreduce.Pair) error {
				mapreduce.MergePairs(groups, batch)
				return nil
			})
		if err != nil {
			lost = append(lost, src.Task)
		}
	}
	if len(lost) > 0 {
		res.LostMaps = lost
		return fail(&res, fault.Transientf("worker: reduce %d lost shards of %d map task(s)", t.Task, len(lost)))
	}
	out, tm, err := mapreduce.ExecReduceAttempt(kf, t.Conf, groups, t.Attempt)
	if err != nil {
		return fail(&res, err)
	}
	res.Out, res.Metrics = out, tm.Export()
	return res
}

// readStats is one map attempt's input-traffic split.
type readStats struct {
	localReads, localBytes, remoteReads, remoteBytes int64
}

// assembleSplit rebuilds a map task's split from the replica-aware
// descriptor: each block from this worker's own replica store when
// present, else from a peer holder, else from the master. Block order —
// and so record iteration order, record ids and output — is exactly the
// descriptor's order, which is the in-process split's.
func (w *Worker) assembleSplit(meta *mapreduce.WireSplitMeta) (*mapreduce.Split, readStats, error) {
	s := &mapreduce.Split{Partition: meta.Partition, MBR: meta.MBR, ContentMBR: meta.ContentMBR, Tag: meta.Tag}
	var st readStats
	for _, ref := range meta.Blocks {
		b, local, err := w.readBlock(ref)
		if err != nil {
			return nil, readStats{}, err
		}
		b.Partition = ref.Partition
		if ref.Extra {
			s.Extra = append(s.Extra, b)
		} else {
			s.Blocks = append(s.Blocks, b)
		}
		if local {
			st.localReads++
			st.localBytes += b.Bytes
		} else {
			st.remoteReads++
			st.remoteBytes += b.Bytes
		}
	}
	return s, st, nil
}

// readBlock opens one block through the locality chain: own replica
// file, peer holders, master. The bool result reports whether the read
// was local. A block no rung can produce fails the read transiently — the
// scheduler retries the attempt.
func (w *Worker) readBlock(ref mapreduce.WireBlockRef) (*dfs.Block, bool, error) {
	if b, err := readReplica(w.replicaPath(ref.ID)); err == nil {
		return b, true, nil
	}
	// A missing or torn replica is not fatal — fall through to a remote copy.
	// The remote rungs in order: peer holders, then the master.
	var err error
	for _, addr := range append(slices.Clip(ref.Holders), w.cfg.Master) {
		if addr == w.Addr() {
			continue
		}
		var reply mapreduce.ReadBlockReply
		if err = w.peers.Call(w.ctx, addr, mapreduce.ShardService+".ReadBlock", &mapreduce.ReadBlockArgs{ID: ref.ID}, &reply); err != nil {
			continue
		}
		var b *dfs.Block
		if b, err = dfs.DecodeBlockFrame(reply.Frame); err == nil {
			return b, false, nil
		}
	}
	return nil, false, fault.Transient(fmt.Errorf("worker: block %d unreadable on every rung: %w", ref.ID, err))
}

// replicaBufs recycles the buffers replica files are read into: a map
// attempt reads every block of its split, and the block a frame opens as
// keeps none of the frame's bytes.
var replicaBufs = sync.Pool{New: func() any { return new([]byte) }}

// readReplica opens the block in one replica file.
func readReplica(path string) (*dfs.Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := replicaBufs.Get().(*[]byte)
	defer replicaBufs.Put(buf)
	*buf = slices.Grow((*buf)[:0], int(fi.Size()))[:fi.Size()]
	if _, err := io.ReadFull(f, *buf); err != nil {
		return nil, err
	}
	return dfs.DecodeBlockFrame(*buf)
}

// spillPath lays the spill directory out as job<J>/m<task>.a<attempt>.r<reducer>.
func (w *Worker) spillPath(jobID int64, task, attempt, reduce int) string {
	return filepath.Join(w.dir, fmt.Sprintf("job%d", jobID), fmt.Sprintf("m%d.a%d.r%d", task, attempt, reduce))
}

// writeSpill persists one sealed spill stream via tmp+rename, so a crash
// mid-write leaves no half-visible file: the fetch either finds a whole
// stream (whose frames it still verifies) or no file at all. A spill
// landing after the job was dropped is removed again — a straggler
// attempt must not resurrect a garbage-collected job directory.
func (w *Worker) writeSpill(jobID int64, task, attempt, reduce int, frame []byte) error {
	path := w.spillPath(jobID, task, attempt, reduce)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	w.mu.Lock()
	dropped := w.dropped[jobID]
	w.mu.Unlock()
	if dropped {
		os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("job%d", jobID)))
	}
	return nil
}

// replicaPath lays the replica store out as replica/b<blockID>.
func (w *Worker) replicaPath(id int64) string {
	return filepath.Join(w.dir, "replica", fmt.Sprintf("b%d", id))
}

// writeReplica installs one pushed block replica, tmp+rename like spills.
func (w *Worker) writeReplica(id int64, frame []byte) error {
	path := w.replicaPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// dropJob garbage-collects one job's spill directory and remembers the
// job so late spills are dropped too.
func (w *Worker) dropJob(jobID int64) {
	w.mu.Lock()
	if w.dropped == nil {
		w.dropped = make(map[int64]bool)
	}
	w.dropped[jobID] = true
	w.mu.Unlock()
	os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("job%d", jobID)))
}

// readSpill reads back one of this worker's own spills (a reducer whose
// source is itself skips the network).
func (w *Worker) readSpill(jobID int64, task, attempt, reduce int) ([]mapreduce.Pair, error) {
	frame, err := os.ReadFile(w.spillPath(jobID, task, attempt, reduce))
	if err != nil {
		return nil, err
	}
	return mapreduce.DecodeShard(frame)
}

// FetchChunk returns one chunk of a spilled shard stream. The fetcher
// verifies frames as they complete, so a truncated or corrupted spill
// surfaces as a torn-shard error there. It and the next three methods
// serve this worker's data plane (ShardService): spilled shard streams to
// reducers (chunked), block replicas to the master's push path and to peer
// map tasks, and the end-of-job spill drop.
func (w *Worker) FetchChunk(_ context.Context, args *mapreduce.FetchChunkArgs, reply *mapreduce.FetchChunkReply) error {
	f, err := os.Open(w.spillPath(args.JobID, args.Task, args.Attempt, args.Reduce))
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	n, eof, err := mapreduce.ChunkWindow(fi.Size(), args.Offset, args.MaxBytes)
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, args.Offset); err != nil {
		return err // the window lies inside the file, so a short read is a fault
	}
	reply.Data, reply.EOF = buf, eof
	return nil
}

// PushBlock installs a block replica pushed by the master's placement
// layer. The frame is verified before it is accepted: a replica store
// never holds bytes it cannot later vouch for.
func (w *Worker) PushBlock(_ context.Context, args *mapreduce.PushBlockArgs, reply *mapreduce.PushBlockReply) error {
	if _, err := dfs.DecodeBlockFrame(args.Frame); err != nil {
		return err
	}
	return w.writeReplica(args.ID, args.Frame)
}

// ReadBlock serves one replica frame to a peer map task (or back to the
// master). The reader verifies the frame.
func (w *Worker) ReadBlock(_ context.Context, args *mapreduce.ReadBlockArgs, reply *mapreduce.ReadBlockReply) error {
	frame, err := os.ReadFile(w.replicaPath(args.ID))
	if err != nil {
		return err
	}
	reply.Frame = frame
	return nil
}

// DropJob garbage-collects a finished job's spill directory.
func (w *Worker) DropJob(_ context.Context, args *mapreduce.DropJobArgs, reply *mapreduce.DropJobReply) error {
	w.dropJob(args.JobID)
	return nil
}
