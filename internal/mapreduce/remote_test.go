// Distributed-runtime tests at the mapreduce/worker seam, with workers
// running as goroutines in this process: registration and lease
// lifecycle, remote execution byte-identity against the in-process path,
// worker death mid-job, and the exactly-once accounting of shard-loss
// re-issues. These run in the external test package because the worker
// package imports mapreduce.
package mapreduce_test

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/worker"
)

// The test job kind: word count, the canonical exercise of the full
// map/combine/shuffle/reduce pipeline. Registered once for the package.
func init() {
	mapreduce.RegisterKind("test-upper", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		return mapreduce.KindFuncs{Map: func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
			for _, rec := range split.Records() {
				ctx.Inc("test.upper.records", 1)
				ctx.Write(strings.ToUpper(rec))
			}
			return nil
		}}, nil
	})
	mapreduce.RegisterKind("test-wordcount", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		return mapreduce.KindFuncs{
			Map: func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
				for _, rec := range split.Records() {
					for _, w := range strings.Fields(rec) {
						ctx.Emit(w, "1")
					}
				}
				return nil
			},
			Combine: func(ctx *mapreduce.TaskContext, key string, values []string) error {
				ctx.Emit(key, strconv.Itoa(len(values)))
				return nil
			},
			Reduce: func(ctx *mapreduce.TaskContext, key string, values []string) error {
				sum := 0
				for _, v := range values {
					n, err := strconv.Atoi(v)
					if err != nil {
						return err
					}
					sum += n
				}
				ctx.Write(fmt.Sprintf("%s\t%d", key, sum))
				return nil
			},
		}, nil
	})
}

// mapOnlyJob is a registered-kind job without a Reduce: every record goes
// upper-cased straight to the output.
func mapOnlyJob() *mapreduce.Job {
	return &mapreduce.Job{Name: "upper", Kind: "test-upper", Input: []string{"text"}, Output: "out"}
}

func kindWordCountJob() *mapreduce.Job {
	return &mapreduce.Job{
		Name:        "wordcount",
		Kind:        "test-wordcount",
		Input:       []string{"text"},
		NumReducers: 3,
		Output:      "out",
	}
}

func writeDistText(t *testing.T, c *mapreduce.Cluster) {
	t.Helper()
	recs := make([]string, 0, 120)
	for i := 0; i < 120; i++ {
		recs = append(recs, fmt.Sprintf("the quick brown fox %d jumps over the lazy dog", i%7))
	}
	if err := c.FS().WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
}

// fastPolicy keeps the tests quick under bursts of worker-death retries.
func fastPolicy() fault.RetryPolicy {
	p := fault.DefaultRetryPolicy()
	p.MaxAttempts = 8
	p.BaseBackoff = 100 * time.Microsecond
	p.MaxBackoff = 2 * time.Millisecond
	p.SpeculativeMin = 50 * time.Millisecond
	return p
}

// workerPool runs n goroutine workers against one master, with a KillFn
// that maps the fake pids back onto Worker.Stop — so the master's kill
// mode exercises real (if in-process) worker death.
type workerPool struct {
	mu      sync.Mutex
	workers map[int]*worker.Worker // by fake pid
}

func (p *workerPool) kill(pid int) error {
	p.mu.Lock()
	w := p.workers[pid]
	p.mu.Unlock()
	if w != nil {
		w.Stop()
	}
	return nil
}

func (p *workerPool) stopAll() {
	p.mu.Lock()
	ws := make([]*worker.Worker, 0, len(p.workers))
	for _, w := range p.workers {
		ws = append(ws, w)
	}
	p.mu.Unlock()
	for _, w := range ws {
		w.Stop()
	}
}

// startDistributed stands up a cluster, a master with test-speed leases,
// and n goroutine workers, and waits until all are under lease.
func startDistributed(t *testing.T, n int, reg *obs.Registry) (*mapreduce.Cluster, *mapreduce.Master, *workerPool) {
	return startDistributedRepl(t, n, reg, 0)
}

// startDistributedRepl is startDistributed with the data plane on at the
// given replication factor.
func startDistributedRepl(t *testing.T, n int, reg *obs.Registry, replication int) (*mapreduce.Cluster, *mapreduce.Master, *workerPool) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 256, DataNodes: 4})
	c := mapreduce.NewCluster(fs, 4)
	c.SetRetryPolicy(fastPolicy())
	pool := &workerPool{workers: make(map[int]*worker.Worker)}
	m, err := c.StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery:   5 * time.Millisecond,
		Lease:            50 * time.Millisecond,
		Metrics:          reg,
		EnableKill:       true,
		KillFn:           pool.kill,
		RecordHeartbeats: true,
		Replication:      replication,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	for i := 0; i < n; i++ {
		pid := 1000 + i
		w, err := worker.Start(worker.Config{
			Master:  m.Addr(),
			Dir:     t.TempDir(),
			Tasks:   2,
			FakePID: pid,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool.mu.Lock()
		pool.workers[pid] = w
		pool.mu.Unlock()
	}
	t.Cleanup(pool.stopAll)
	waitFor(t, time.Second, func() bool { return m.LiveWorkers() == n })
	return c, m, pool
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// inProcessOracle runs the same job fully in process and returns its
// output records and report.
func inProcessOracle(t *testing.T) ([]string, *mapreduce.Report) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 256, DataNodes: 4})
	c := mapreduce.NewCluster(fs, 4)
	writeDistText(t, c)
	rep, err := c.Run(kindWordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.FS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

func readOut(t *testing.T, c *mapreduce.Cluster) []string {
	t.Helper()
	out, err := c.FS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameRecords(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records vs %d in-process", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d diverged: %q vs %q", what, i, got[i], want[i])
		}
	}
}

// countFaultEvents tallies a fault log's events by kind.
func countFaultEvents(l *fault.Log) map[string]int {
	out := map[string]int{}
	for _, e := range l.Events() {
		out[e.Kind]++
	}
	return out
}

// TestWorkerPoolLifecycle pins registration, the lifecycle metrics, the
// heartbeat log, and lease expiry on silent death.
func TestWorkerPoolLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	_, m, pool := startDistributed(t, 2, reg)

	if got := reg.Counter(mapreduce.MetricWorkersRegistered); got != 2 {
		t.Fatalf("registered counter = %d, want 2", got)
	}
	if got := reg.Snapshot().Gauges[mapreduce.GaugeWorkersLive]; got != 2 {
		t.Fatalf("live gauge = %v, want 2", got)
	}

	// Stop one worker without telling the master: its lease must expire.
	pool.kill(1000)
	waitFor(t, time.Second, func() bool { return m.LiveWorkers() == 1 })
	if got := reg.Counter(mapreduce.MetricWorkersLost); got != 1 {
		t.Fatalf("lost counter = %d, want 1", got)
	}
	ev := countFaultEvents(m.FaultLog())
	if ev["worker-register"] != 2 || ev["worker-lost"] != 1 {
		t.Fatalf("fault events = %v, want 2 registrations and 1 loss", ev)
	}
	waitFor(t, time.Second, func() bool { return len(m.HeartbeatLog().Events()) > 0 })
	for _, e := range m.HeartbeatLog().Events() {
		if e.Worker == 0 {
			t.Fatalf("heartbeat event without worker id: %+v", e)
		}
	}
}

// TestRemoteByteIdentity is the core contract of the attempt seam: the
// same registered-kind job run in process, on a 2-worker pool at
// replication 0 and at replication 2, on a pool whose workers all died
// before the job, and on a one-worker pool whose worker dies at its first
// map or its first reduce assignment (after the maps have won on it, so
// its shards die with it), produces byte-identical output, identical
// Report.Counters maps, identical histogram observation counts and
// identical task rows (the observed durations differ, nothing else may).
// The pool rows genuinely ran remotely (tasks were dispatched to
// workers), and exactly the runs whose pool emptied mid-job failed over,
// once: what the aborted pool run counted never reaches the report.
// Spill files are no evidence anymore — end-of-job GC removes them.
func TestRemoteByteIdentity(t *testing.T) {
	want, wantRep := inProcessOracle(t)
	histCounts := func(rep *mapreduce.Report) map[string]int64 {
		out := map[string]int64{}
		for name, h := range rep.Metrics.Histograms {
			out[name] = h.Count
		}
		return out
	}
	rows := func(rep *mapreduce.Report) []mapreduce.TaskRow {
		out := slices.Clone(rep.Tasks)
		for i := range out {
			out[i].Dur = 0
		}
		return out
	}
	if n := len(wantRep.Tasks); n == 0 || n != wantRep.MapTasks+wantRep.ReduceTasks || wantRep.ReduceTasks == 0 {
		t.Fatalf("oracle: %d rows for %d map and %d reduce tasks", n, wantRep.MapTasks, wantRep.ReduceTasks)
	}
	// The rows add up to the job counters: what the maps read and shuffled
	// is what the counters hold, and the reducers read every shuffled pair.
	var mapIn, shuffled, reduceIn int64
	for _, row := range wantRep.Tasks {
		if row.Phase == obs.PhaseMap {
			mapIn, shuffled = mapIn+row.RecordsIn, shuffled+row.Bytes
		} else {
			reduceIn += row.RecordsIn
		}
	}
	if c := wantRep.Counters; mapIn != c[mapreduce.CounterMapRecordsIn] || shuffled != c[mapreduce.CounterShuffleBytes] || reduceIn != c[mapreduce.CounterShufflePairs] {
		t.Fatalf("oracle rows: %d records in, %d bytes shuffled, %d values reduced; counters %v", mapIn, shuffled, reduceIn, c)
	}
	for _, tc := range []struct {
		name                 string
		workers, replication int
		loseWorkers          bool
		// killPhase kills the pool's worker at its first assignment of
		// this phase ("" kills none).
		killPhase string
	}{
		{"replication-0", 2, 0, false, ""},
		{"replication-2", 2, 2, false, ""},
		{"workers-lost", 2, 0, true, ""},
		{"pool-empties-in-map", 1, 0, false, mapreduce.TaskMap},
		{"pool-empties-in-reduce", 1, 0, false, mapreduce.TaskReduce},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c, m, pool := startDistributedRepl(t, tc.workers, reg, tc.replication)
			if tc.killPhase != "" {
				c.SetFault(fault.Plan{Seed: 1, WorkerKillRate: 1, WorkerKillPhase: tc.killPhase, KillBudget: 1})
			}
			writeDistText(t, c)
			if tc.loseWorkers {
				pool.stopAll()
				waitFor(t, time.Second, func() bool { return m.LiveWorkers() == 0 })
			}
			rep, err := c.Run(kindWordCountJob())
			if err != nil {
				t.Fatal(err)
			}
			assertSameRecords(t, readOut(t, c), want, tc.name+" wordcount")
			if !reflect.DeepEqual(rep.Counters, wantRep.Counters) {
				t.Errorf("Report.Counters diverged from the in-process run:\n got %v\nwant %v", rep.Counters, wantRep.Counters)
			}
			if got, want := histCounts(rep), histCounts(wantRep); !reflect.DeepEqual(got, want) {
				t.Errorf("histogram observation counts diverged from the in-process run:\n got %v\nwant %v", got, want)
			}
			if got, want := rows(rep), rows(wantRep); !reflect.DeepEqual(got, want) {
				t.Errorf("task rows diverged from the in-process run:\n got %+v\nwant %+v", got, want)
			}
			if dispatched := reg.Counter(mapreduce.MetricTasksDispatched); (dispatched > 0) == tc.loseWorkers {
				t.Fatalf("%d tasks dispatched to workers with loseWorkers=%v", dispatched, tc.loseWorkers)
			}
			ev := countFaultEvents(m.FaultLog())
			if (ev["replicate"] > 0) != (tc.replication > 0) {
				t.Fatalf("%d replicas pushed at replication %d", ev["replicate"], tc.replication)
			}
			killed := 0
			if tc.killPhase != "" {
				killed = 1
			}
			if ev["worker-kill"] != killed || ev["failover"] != killed {
				t.Fatalf("fault events = %v, want %d worker-kill and %d failover", ev, killed, killed)
			}
			for _, e := range m.FaultLog().Events() {
				if e.Kind == "worker-kill" && e.Phase != tc.killPhase {
					t.Fatalf("worker killed at a %s assignment, want %s", e.Phase, tc.killPhase)
				}
			}
			// A pool that loses its last worker re-issues nothing: no worker
			// is left to hold a re-run's shards.
			for _, s := range rep.Trace.Spans() {
				if s.Attempt >= 2000 {
					t.Fatalf("%s attempt %d: a map was re-issued", s.Name, s.Attempt)
				}
			}
		})
	}
}

// TestCorruptBlockNeverSealed: a block damaged before any job showed it
// to the data plane fails its checksum where the master would seal it.
// The plane pushes no replica of it, the master's ReadBlock refuses it,
// and the pool job fails as the in-process one does, instead of
// answering from a frame whose checksum was computed from damaged bytes.
func TestCorruptBlockNeverSealed(t *testing.T) {
	for _, replication := range []int{0, 1} {
		t.Run(fmt.Sprint("replication-", replication), func(t *testing.T) {
			c, m, _ := startDistributedRepl(t, 2, obs.NewRegistry(), replication)
			writeDistText(t, c)
			if err := c.FS().CorruptBlock("text", 0); err != nil {
				t.Fatal(err)
			}
			f, err := c.FS().Open("text")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(kindWordCountJob()); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("pool job over a corrupt block: %v, want a checksum mismatch", err)
			}
			if c.FS().Exists("out") {
				t.Error("the failed job published its output")
			}
			pushed := 0
			for _, e := range m.FaultLog().Events() {
				if e.Kind == "replicate" && e.Task == int(f.Blocks[0].ID) {
					t.Errorf("the corrupt block was pushed to worker %d", e.Worker)
				}
				if e.Kind == "replicate" {
					pushed++
				}
			}
			if (pushed > 0) != (replication > 0) {
				t.Errorf("%d replicas pushed at replication %d", pushed, replication)
			}
		})
	}
}

// TestMasterStopLeavesNoGoroutines: every job's close broadcasts DropJob
// to the workers in the background; Master.Stop must wait those calls
// out, so that after 20 jobs and a teardown the process is back at its
// pre-StartMaster goroutine count (the call layer's per-connection
// goroutines unwind asynchronously after their sockets close, hence the
// short poll).
func TestMasterStopLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c, m, pool := startDistributed(t, 2, obs.NewRegistry())
	writeDistText(t, c)
	for i := 0; i < 20; i++ {
		if _, err := c.Run(kindWordCountJob()); err != nil {
			t.Fatal(err)
		}
	}
	pool.stopAll()
	for _, w := range pool.workers {
		w.Wait()
	}
	m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop, %d before StartMaster:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil // the asynchronous drop removed it mid-walk
		}
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".r") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRemoteFallbackNoWorkers: a master with an empty pool must leave
// jobs on the in-process path.
func TestRemoteFallbackNoWorkers(t *testing.T) {
	want, _ := inProcessOracle(t)
	fs := dfs.New(dfs.Config{BlockSize: 256, DataNodes: 4})
	c := mapreduce.NewCluster(fs, 4)
	m, err := c.StartMaster(mapreduce.MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	writeDistText(t, c)
	if _, err := c.Run(kindWordCountJob()); err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "fallback wordcount")
}

// TestWorkerKillDuringMap kills the assignee the moment its first map
// task is assigned: the dispatch dies with the worker, the lease expires,
// and the scheduler re-runs the task elsewhere — output unchanged.
func TestWorkerKillDuringMap(t *testing.T) {
	want, _ := inProcessOracle(t)

	c, m, _ := startDistributed(t, 2, obs.NewRegistry())
	c.SetFault(fault.Plan{
		Seed:            7,
		WorkerKillRate:  1.0,
		WorkerKillPhase: mapreduce.TaskMap,
		KillBudget:      1,
	})
	writeDistText(t, c)
	rep, err := c.Run(kindWordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "wordcount with map-phase kill")

	ev := countFaultEvents(m.FaultLog())
	if ev["worker-kill"] != 1 {
		t.Fatalf("fault events = %v, want exactly 1 worker-kill", ev)
	}
	if ev["worker-lost"] == 0 {
		t.Fatalf("fault events = %v, want a worker-lost after the kill", ev)
	}
	if rep.Counters[mapreduce.CounterWorkerLost] == 0 {
		t.Fatal("no dispatch was failed by worker death; the kill hit nothing in-flight")
	}
}

// TestReissueCountedExactlyOnce is the exactly-once regression: kill the
// worker holding finished map shards while a reduce is being assigned
// (death during shuffle fetch). The lost map tasks are re-executed, yet
// every job counter must match the fault-free run — the re-run's metrics
// are suppressed — and each map task must have exactly one winning span,
// with the re-runs marked as reissue spans.
func TestReissueCountedExactlyOnce(t *testing.T) {
	want, wantRep := inProcessOracle(t)

	c, m, _ := startDistributed(t, 2, obs.NewRegistry())
	c.SetFault(fault.Plan{
		Seed:             3,
		WorkerKillRate:   1.0,
		WorkerKillPhase:  mapreduce.TaskReduce,
		WorkerKillHolder: true,
		KillBudget:       1,
	})
	writeDistText(t, c)
	rep, err := c.Run(kindWordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "wordcount with holder kill")

	if rep.Counters[mapreduce.CounterReissuedMaps] == 0 {
		t.Fatal("holder death re-issued no map task; the scenario did not trigger")
	}
	ev := countFaultEvents(m.FaultLog())
	if ev["worker-kill"] != 1 || ev["reissue"] == 0 {
		t.Fatalf("fault events = %v, want 1 worker-kill and >=1 reissue", ev)
	}

	// Counters: exactly once. Everything the tasks measured must be
	// identical to the fault-free run, re-issues notwithstanding.
	for _, name := range []string{
		mapreduce.CounterMapRecordsIn, mapreduce.CounterMapRecordsOut,
		mapreduce.CounterShufflePairs, mapreduce.CounterReduceGroups,
		mapreduce.CounterOutputRecords,
	} {
		if rep.Counters[name] != wantRep.Counters[name] {
			t.Errorf("counter %s = %d with reissue, %d fault-free — the re-run double- or under-counted",
				name, rep.Counters[name], wantRep.Counters[name])
		}
	}

	// Spans: per map task exactly one winner (outcome ok); the re-runs
	// appear only as reissue spans.
	okByTask := map[int]int{}
	reissues := 0
	for _, s := range rep.Trace.Spans() {
		if s.Phase != obs.PhaseMap {
			continue
		}
		switch s.Outcome {
		case obs.OutcomeOK:
			okByTask[s.Task]++
		case obs.OutcomeReissue:
			reissues++
			if s.Attempt < 2000 {
				t.Errorf("reissue span of task %d has attempt %d, want the reissue range (2000+)", s.Task, s.Attempt)
			}
		}
	}
	if reissues == 0 {
		t.Fatal("no reissue span recorded")
	}
	for task, n := range okByTask {
		if n != 1 {
			t.Errorf("map task %d has %d winning spans, want exactly 1", task, n)
		}
	}
	if int64(reissues) != rep.Counters[mapreduce.CounterReissuedMaps] {
		t.Errorf("%d reissue spans vs counter %d", reissues, rep.Counters[mapreduce.CounterReissuedMaps])
	}
}

// TestSpillGC is the spill-leak regression: after a sequence of jobs,
// every worker's job spill directories must be garbage-collected (the
// drop is asynchronous, so the assertion polls). Replica files survive —
// only job<J>/ trees are per-job state.
func TestSpillGC(t *testing.T) {
	c, _, pool := startDistributed(t, 2, obs.NewRegistry())
	writeDistText(t, c)
	for i := 0; i < 3; i++ {
		job := kindWordCountJob()
		job.Output = fmt.Sprintf("out%d", i)
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	pool.mu.Lock()
	dirs := make([]string, 0, len(pool.workers))
	for _, w := range pool.workers {
		dirs = append(dirs, w.Dir())
	}
	pool.mu.Unlock()
	waitFor(t, 2*time.Second, func() bool {
		total := 0
		for _, dir := range dirs {
			total += countSpillFiles(t, dir)
		}
		return total == 0
	})
}

// TestMapOnlyJobSpillsNothing: a job without a Reduce has no reducer to
// fetch a shard, so its map attempts must not touch the spill directory at
// all. End-of-job GC makes "no job directory afterwards" no evidence, so
// the test makes the directory impossible instead: the first job of a
// master is job 1, and a regular file of that name sits where each worker
// would create it. An attempt that spills fails its MkdirAll on every try.
func TestMapOnlyJobSpillsNothing(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 256, DataNodes: 4})
	ref := mapreduce.NewCluster(fs, 4)
	writeDistText(t, ref)
	wantRep, err := ref.Run(mapOnlyJob())
	if err != nil {
		t.Fatal(err)
	}
	want := readOut(t, ref)

	reg := obs.NewRegistry()
	c, _, pool := startDistributedRepl(t, 2, reg, 2)
	writeDistText(t, c)
	pool.mu.Lock()
	for _, w := range pool.workers {
		if err := os.WriteFile(filepath.Join(w.Dir(), "job1"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pool.mu.Unlock()
	rep, err := c.Run(mapOnlyJob())
	if err != nil {
		t.Fatalf("map-only job on a pool that cannot spill: %v", err)
	}
	assertSameRecords(t, readOut(t, c), want, "map-only job")
	if !reflect.DeepEqual(rep.Counters, wantRep.Counters) {
		t.Fatalf("counters diverged:\n remote:     %v\n in-process: %v", rep.Counters, wantRep.Counters)
	}
	if reg.Counter(mapreduce.MetricTasksDispatched) == 0 {
		t.Fatal("no task was dispatched to a worker; the job ran in process")
	}
	if n := rep.Counters[mapreduce.CounterTaskRetries]; n != 0 {
		t.Fatalf("%d task retries; a map attempt tried to spill", n)
	}
}

// TestLocalityMetrics: with the data plane on, map input is read from
// local replicas (the locality counters prove it), dispatch prefers
// holders, and output stays byte-identical to the in-process run.
func TestLocalityMetrics(t *testing.T) {
	want, _ := inProcessOracle(t)

	reg := obs.NewRegistry()
	c, _, _ := startDistributedRepl(t, 3, reg, 2)
	writeDistText(t, c)
	if _, err := c.Run(kindWordCountJob()); err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "replicated wordcount")

	if reg.Counter(mapreduce.MetricDFSLocalReads) == 0 {
		t.Fatal("no map input block was read from a local replica")
	}
	if reg.Counter(mapreduce.MetricDispatchLocal) == 0 {
		t.Fatal("no map dispatch went to a replica holder")
	}
	local := reg.Counter(mapreduce.MetricDFSLocalBytes)
	remote := reg.Counter(mapreduce.MetricDFSRemoteBytes)
	if local+remote == 0 {
		t.Fatal("read path reported no input bytes at all")
	}
	t.Logf("locality: %d local / %d remote bytes", local, remote)
}

// TestStreamingShuffleChunks forces the shuffle through absurdly small
// chunks — every frame arrives in many pieces and most chunks split a
// frame — and requires byte-identical output: the incremental decoder
// must reassemble exactly what a whole-shard fetch would have.
func TestStreamingShuffleChunks(t *testing.T) {
	want, _ := inProcessOracle(t)

	old := mapreduce.ShuffleChunkBytes
	mapreduce.ShuffleChunkBytes = 7
	defer func() { mapreduce.ShuffleChunkBytes = old }()

	c, _, _ := startDistributed(t, 2, obs.NewRegistry())
	writeDistText(t, c)
	if _, err := c.Run(kindWordCountJob()); err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "tiny-chunk shuffle wordcount")
}

// TestTotalWorkerLossFallsBack: every worker dies mid-pool; the job must
// still complete (in process) with identical output.
func TestTotalWorkerLossFallsBack(t *testing.T) {
	want, _ := inProcessOracle(t)
	c, m, pool := startDistributed(t, 2, obs.NewRegistry())
	writeDistText(t, c)
	pool.stopAll()
	waitFor(t, time.Second, func() bool { return m.LiveWorkers() == 0 })
	if _, err := c.Run(kindWordCountJob()); err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, readOut(t, c), want, "wordcount after total worker loss")
}
