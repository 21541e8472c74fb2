// Distributed end-to-end tests with real worker processes: the test
// binary re-executes itself as a worker (SHADOOP_WORKER_MAIN=1), so the
// master/worker runtime is exercised across genuine process boundaries —
// RPC over real sockets, spills on a real filesystem, and SIGKILL
// delivering real process death. The acceptance contract: a range query
// and an indexed spatial join on >=2 worker processes are byte-identical
// to the in-process run, and the job completes when one worker is
// SIGKILLed mid-job, with the re-issue visible in the trace and the
// master's fault log.
package spatialhadoop_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// TestMain reroutes the re-executed test binary into worker mode. The
// package's tests import ops and cg, so the worker process has every job
// kind registered.
func TestMain(m *testing.M) {
	if os.Getenv("SHADOOP_WORKER_MAIN") == "1" {
		w, err := worker.Start(worker.Config{
			Master:     os.Getenv("SHADOOP_MASTER_ADDR"),
			Dir:        os.Getenv("SHADOOP_WORKER_DIR"),
			Tasks:      2,
			ServeTasks: os.Getenv("SHADOOP_WORKER_SERVE") == "1",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		_ = w
		select {} // run until the parent kills us
	}
	os.Exit(m.Run())
}

// workerProc is one spawned worker process; exited closes when it dies.
type workerProc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// spawnWorkerProcess re-executes the test binary as a worker process.
// extraEnv entries (e.g. SHADOOP_WORKER_SERVE=1) are appended.
func spawnWorkerProcess(t *testing.T, masterAddr string, extraEnv ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(append(os.Environ(),
		"SHADOOP_WORKER_MAIN=1",
		"SHADOOP_MASTER_ADDR="+masterAddr,
		"SHADOOP_WORKER_DIR="+t.TempDir(),
	), extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &workerProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.exited
	})
	return p
}

// dead reports whether the process has exited, within a grace period.
func (p *workerProc) dead(grace time.Duration) bool {
	select {
	case <-p.exited:
		return true
	case <-time.After(grace):
		return false
	}
}

func waitLive(t *testing.T, m *mapreduce.Master, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered in time", m.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// distCorpus loads the same dataset into a system: an STR-indexed points
// file and two indexed region files for the join.
func distCorpus(t *testing.T, sys *core.System) {
	t.Helper()
	area := geom.NewRect(0, 0, 20_000, 20_000)
	pts := datagen.Points(datagen.Clustered, 4000, area, 71)
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	toRegions := func(pgs []geom.Polygon) []geom.Region {
		out := make([]geom.Region, len(pgs))
		for i, pg := range pgs {
			out[i] = geom.RegionOf(pg)
		}
		return out
	}
	if _, err := sys.LoadRegions("a", toRegions(datagen.Tessellation(6, 6, area, 3)), sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadRegions("b", toRegions(datagen.Tessellation(5, 5, area, 4)), sindex.STR); err != nil {
		t.Fatal(err)
	}
}

func readOutput(t *testing.T, sys *core.System, rep *mapreduce.Report) []string {
	t.Helper()
	out, err := sys.FS().ReadAll(rep.OutputFile)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireIdentical(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records distributed vs %d in-process", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d diverged:\n distributed: %q\n in-process:  %q", what, i, got[i], want[i])
		}
	}
}

// TestDistributedRealProcesses is the acceptance run: range query and
// indexed join on two real worker processes, byte-identical to the
// in-process execution of the same system configuration.
func TestDistributedRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e is not -short")
	}
	newSys := func() *core.System {
		return core.New(core.Config{Workers: 6, BlockSize: 8 << 10, Seed: 1})
	}

	// In-process oracle.
	ref := newSys()
	distCorpus(t, ref)
	rect := geom.NewRect(2_000, 2_000, 16_000, 16_000)
	_, rangeRep, err := ops.RangeQueryPoints(ref, "pts", rect)
	if err != nil {
		t.Fatal(err)
	}
	wantRange := readOutput(t, ref, rangeRep)
	_, joinRep, err := ops.SpatialJoinIndexed(ref, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	wantJoin := readOutput(t, ref, joinRep)
	_, knnRep, err := ops.KNN(ref, "pts", geom.Pt(10_000, 10_000), 15)
	if err != nil {
		t.Fatal(err)
	}
	wantKNN := readOutput(t, ref, knnRep)

	// Distributed system: master plus two real worker processes.
	sys := newSys()
	distCorpus(t, sys)
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		Lease:          200 * time.Millisecond,
		Metrics:        sys.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	spawnWorkerProcess(t, m.Addr())
	spawnWorkerProcess(t, m.Addr())
	waitLive(t, m, 2)

	_, rep, err := ops.RangeQueryPoints(sys, "pts", rect)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, readOutput(t, sys, rep), wantRange, "range query on real workers")

	_, rep, err = ops.SpatialJoinIndexed(sys, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, readOutput(t, sys, rep), wantJoin, "indexed join on real workers")

	_, rep, err = ops.KNN(sys, "pts", geom.Pt(10_000, 10_000), 15)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, readOutput(t, sys, rep), wantKNN, "knn on real workers")

	if got := sys.Metrics().Counter(mapreduce.MetricWorkersRegistered); got < 2 {
		t.Fatalf("workers registered = %d, want >= 2", got)
	}
}

// TestDistributedSIGKILLMidJob SIGKILLs one of three real worker
// processes at the moment it is assigned a map task. The job must
// complete with byte-identical output, the kill and the resulting worker
// loss must be in the master's fault log, and the trace must show the
// killed task's re-issued attempt winning.
func TestDistributedSIGKILLMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e is not -short")
	}
	newSys := func() *core.System {
		return core.New(core.Config{Workers: 6, BlockSize: 8 << 10, Seed: 1})
	}
	ref := newSys()
	distCorpus(t, ref)
	rect := geom.NewRect(2_000, 2_000, 16_000, 16_000)
	_, rangeRep, err := ops.RangeQueryPoints(ref, "pts", rect)
	if err != nil {
		t.Fatal(err)
	}
	wantRange := readOutput(t, ref, rangeRep)

	sys := newSys()
	distCorpus(t, sys)
	// Arm the real-process kill mode: the first map assignment SIGKILLs
	// its assignee.
	sys.Cluster().SetFault(fault.Plan{
		Seed:            11,
		WorkerKillRate:  1.0,
		WorkerKillPhase: mapreduce.TaskMap,
		KillBudget:      1,
	})
	pol := fault.DefaultRetryPolicy()
	pol.MaxAttempts = 8
	pol.BaseBackoff = time.Millisecond
	pol.MaxBackoff = 10 * time.Millisecond
	sys.Cluster().SetRetryPolicy(pol)

	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		Lease:          200 * time.Millisecond,
		Metrics:        sys.Metrics(),
		EnableKill:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	procs := []*workerProc{
		spawnWorkerProcess(t, m.Addr()),
		spawnWorkerProcess(t, m.Addr()),
		spawnWorkerProcess(t, m.Addr()),
	}
	waitLive(t, m, 3)

	_, rep, err := ops.RangeQueryPoints(sys, "pts", rect)
	if err != nil {
		t.Fatalf("range query with SIGKILL mid-job: %v", err)
	}
	requireIdentical(t, readOutput(t, sys, rep), wantRange, "range query surviving SIGKILL")

	kills, losses := 0, 0
	for _, e := range m.FaultLog().Events() {
		switch e.Kind {
		case "worker-kill":
			kills++
		case "worker-lost":
			losses++
		}
	}
	if kills != 1 {
		t.Fatalf("fault log records %d worker-kills, want exactly 1", kills)
	}
	if losses == 0 {
		t.Fatal("fault log records no worker-lost after the SIGKILL")
	}
	if rep.Counters[mapreduce.CounterWorkerLost] == 0 {
		t.Fatal("no dispatch failed by worker death; the SIGKILL hit nothing in-flight")
	}

	// The re-issue is visible in the trace: the killed task's later
	// attempt won after the first was abandoned.
	reissued := false
	for _, s := range rep.Trace.Spans() {
		if s.Phase == obs.PhaseMap && s.Attempt > 0 && s.Outcome == obs.OutcomeOK {
			reissued = true
		}
	}
	if !reissued {
		t.Fatal("trace shows no re-issued map attempt winning after the kill")
	}

	// Exactly one of the three processes actually died, and the master's
	// pool settled on the two survivors.
	dead := 0
	for _, p := range procs {
		if p.dead(500 * time.Millisecond) {
			dead++
		}
	}
	if dead != 1 {
		t.Fatalf("%d worker processes dead, want exactly 1 (the SIGKILL victim)", dead)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.LiveWorkers() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("live workers = %d after the kill, want 2", m.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedLocality is the data plane's acceptance run: with three
// real worker processes and replication 2, a multi-job workload over the
// same input files must read at least half of its map-input bytes from
// local replicas (the counters behind shadoop_dfs_local_reads_total /
// shadoop_dfs_remote_reads_total prove it), stay byte-identical to the
// in-process run, and ship fewer bytes out of the master than the same
// workload at replication 0. With DATAPLANE_ARTIFACT_DIR set, the
// replica-placement and master fault-event logs are written there as
// JSONL (CI uploads them).
func TestDistributedLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e is not -short")
	}
	newSys := func() *core.System {
		return core.New(core.Config{Workers: 6, BlockSize: 8 << 10, Seed: 1})
	}
	rects := []geom.Rect{
		geom.NewRect(2_000, 2_000, 16_000, 16_000),
		geom.NewRect(500, 9_000, 11_000, 19_500),
		geom.NewRect(7_500, 0, 19_000, 8_000),
		geom.NewRect(0, 0, 20_000, 20_000),
	}
	// Several jobs over the same inputs: replicas are pushed once at the
	// first job and reused by the rest, which is where the plane beats
	// master-served reads (those re-ship every split every job).
	runWorkload := func(sys *core.System) [][]string {
		t.Helper()
		var outs [][]string
		for _, rect := range rects {
			_, rep, err := ops.RangeQueryPoints(sys, "pts", rect)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, readOutput(t, sys, rep))
		}
		_, rep, err := ops.KNN(sys, "pts", geom.Pt(10_000, 10_000), 15)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, readOutput(t, sys, rep))
		_, rep, err = ops.SpatialJoinIndexed(sys, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, readOutput(t, sys, rep))
		return outs
	}

	ref := newSys()
	distCorpus(t, ref)
	want := runWorkload(ref)

	startCluster := func(replication int) (*core.System, *mapreduce.Master) {
		sys := newSys()
		distCorpus(t, sys)
		m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			Lease:          200 * time.Millisecond,
			Metrics:        sys.Metrics(),
			Replication:    replication,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		for i := 0; i < 3; i++ {
			spawnWorkerProcess(t, m.Addr())
		}
		waitLive(t, m, 3)
		return sys, m
	}

	sys, m := startCluster(2)
	got := runWorkload(sys)
	for i := range want {
		requireIdentical(t, got[i], want[i], fmt.Sprintf("workload job %d with replication 2", i))
	}

	reg := sys.Metrics()
	localBytes := reg.Counter(mapreduce.MetricDFSLocalBytes)
	remoteBytes := reg.Counter(mapreduce.MetricDFSRemoteBytes)
	if localBytes+remoteBytes == 0 {
		t.Fatal("no map-input bytes flowed through the data plane")
	}
	ratio := float64(localBytes) / float64(localBytes+remoteBytes)
	t.Logf("locality: %d local / %d remote map-input bytes (%.0f%% local), %d local / %d nonlocal dispatches",
		localBytes, remoteBytes, 100*ratio,
		reg.Counter(mapreduce.MetricDispatchLocal), reg.Counter(mapreduce.MetricDispatchNonlocal))
	if ratio < 0.5 {
		t.Fatalf("only %.0f%% of map-input bytes were read locally, want >= 50%%", 100*ratio)
	}
	egressRepl := reg.Counter(mapreduce.MetricMasterEgress)

	base, _ := startCluster(0)
	gotBase := runWorkload(base)
	for i := range want {
		requireIdentical(t, gotBase[i], want[i], fmt.Sprintf("workload job %d at replication 0", i))
	}
	egressBase := base.Metrics().Counter(mapreduce.MetricMasterEgress)
	t.Logf("master egress: %d bytes with replication 2 vs %d at replication 0", egressRepl, egressBase)
	if egressRepl >= egressBase {
		t.Fatalf("replication did not cut master egress: %d bytes vs %d at replication 0", egressRepl, egressBase)
	}

	if dir := os.Getenv("DATAPLANE_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		placement := &fault.Log{}
		for _, e := range m.FaultLog().Events() {
			if e.Kind == "replicate" || e.Kind == "re-replicate" {
				placement.Append(e)
			}
		}
		writeLog := func(name string, l *fault.Log) {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := l.WriteJSONL(f); err != nil {
				t.Fatal(err)
			}
		}
		writeLog("placement-events.jsonl", placement)
		writeLog("master-events.jsonl", m.FaultLog())
	}
}

// TestDistributedHeapRangeAndTiedKNN covers the two shapes
// TestDistributedRealProcesses does not, on a two-worker pool against the
// in-process run of the same system: a range job over a heap file (every
// block probed, none pruned) and a kNN whose k-th distance is tied by
// points in different blocks. A worker scans each block where the master
// probes its persisted local index, so identical raw output files —
// record for record, in order — and identical counters are the evidence
// that the two probes are one definition. The range job is map-only: no
// worker may be left holding a spill directory for it.
func TestDistributedHeapRangeAndTiedKNN(t *testing.T) {
	q, k := geom.Pt(0, 0), 4
	area := geom.NewRect(100, 100, 5_000, 5_000) // everything random is far from q
	pts := datagen.Points(datagen.Uniform, 3000, area, 5)
	// Two points nearer than 5 and six at exactly 5: the 4th nearest is a
	// six-way tie. Five of the eight sit side by side, so one block's own
	// 4th distance is tied too; the rest are spread through the file.
	for i, p := range []geom.Point{{X: 1, Y: 0}, {X: 0, Y: -1}, {X: 3, Y: 4}, {X: -4, Y: 3}, {X: 4, Y: -3}} {
		pts[7+i] = p
	}
	for i, p := range []geom.Point{{X: 5, Y: 0}, {X: 0, Y: -5}, {X: -3, Y: -4}} {
		pts[(i+1)*700] = p
	}
	// The query's max corner is a data point and two of the tied points lie
	// on its min edges, so the boundary is inclusive on every side or the
	// outputs differ.
	rect := geom.NewRect(-4, -5, pts[1500].X, pts[1500].Y)
	newSys := func() *core.System {
		sys := core.New(core.Config{Workers: 6, BlockSize: 8 << 10, Seed: 1})
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	type result struct {
		rangeOut, knnOut []string
		knn              []geom.Point
		rangeCounters    map[string]int64
		knnCounters      map[string]int64
	}
	run := func(sys *core.System, afterRange func()) result {
		var r result
		_, rep, err := ops.RangeQueryPoints(sys, "heap", rect)
		if err != nil {
			t.Fatal(err)
		}
		if afterRange != nil {
			afterRange()
		}
		r.rangeOut, r.rangeCounters = readOutput(t, sys, rep), rep.Counters
		if r.knn, rep, err = ops.KNN(sys, "heap", q, k); err != nil {
			t.Fatal(err)
		}
		r.knnOut, r.knnCounters = readOutput(t, sys, rep), rep.Counters
		return r
	}

	ref := newSys()
	f, err := ref.FS().Open("heap")
	if err != nil {
		t.Fatal(err)
	}
	tiedBlocks := 0
	for _, b := range f.Blocks {
		bpts, err := b.Points()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range bpts {
			if p.Dist(q) == 5 {
				tiedBlocks++
				break
			}
		}
	}
	if tiedBlocks < 2 {
		t.Fatalf("the tie at distance 5 sits in %d block(s); the corpus must spread it over >= 2", tiedBlocks)
	}
	want := run(ref, nil)
	if len(want.rangeOut) == 0 || len(want.knn) != k || want.knn[k-1].Dist(q) != 5 {
		t.Fatalf("oracle: %d range records, kNN %v; want matches and a k-th neighbour at distance 5", len(want.rangeOut), want.knn)
	}

	sys := newSys()
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          time.Second,
		Metrics:        sys.Metrics(),
		Replication:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	var dirs []string
	for i := 0; i < 2; i++ {
		w, err := worker.Start(worker.Config{Master: m.Addr(), Dir: t.TempDir(), Tasks: 2, FakePID: 9500 + i})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		dirs = append(dirs, w.Dir())
	}
	waitLive(t, m, 2)
	got := run(sys, func() {
		for _, dir := range dirs {
			if left, _ := filepath.Glob(filepath.Join(dir, "job*")); len(left) > 0 {
				t.Errorf("map-only range job left %v on a worker", left)
			}
		}
	})
	if sys.Metrics().Counter(mapreduce.MetricTasksDispatched) == 0 {
		t.Fatal("no task reached a worker; the jobs ran in process")
	}
	requireIdentical(t, got.rangeOut, want.rangeOut, "heap range on a worker pool")
	requireIdentical(t, got.knnOut, want.knnOut, "tied kNN on a worker pool")
	if !reflect.DeepEqual(got.knn, want.knn) {
		t.Fatalf("kNN answer diverged:\n distributed: %v\n in-process:  %v", got.knn, want.knn)
	}
	if !reflect.DeepEqual(got.rangeCounters, want.rangeCounters) {
		t.Fatalf("range counters diverged:\n distributed: %v\n in-process:  %v", got.rangeCounters, want.rangeCounters)
	}
	if !reflect.DeepEqual(got.knnCounters, want.knnCounters) {
		t.Fatalf("kNN counters diverged:\n distributed: %v\n in-process:  %v", got.knnCounters, want.knnCounters)
	}
}

// TestDistributedBinary drives the real cmd/shadoop binary: a
// reduce-bearing operation whose map needs broadcast Conf (-op
// hull-enhanced ships every partition's content MBR) runs under
// -master-listen on two `shadoop worker` processes and must print what the
// same command prints in process, with the metrics summary showing that
// tasks really were dispatched.
func TestDistributedBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e is not -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "shadoop")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/shadoop").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/shadoop: %v\n%s", err, out)
	}
	opArgs := []string{"-op", "hull-enhanced", "-n", "20000", "-index", "str+", "-metrics"}
	// resultLine is the driver's one-line answer with its wall time cut out.
	resultLine := func(out []byte) string {
		m := regexp.MustCompile(`(?m)^(enhanced convex hull -> \d+ vertices): \S+ wall(;.*)$`).FindSubmatch(out)
		if m == nil {
			t.Fatalf("no result line in:\n%s", out)
		}
		return string(m[1]) + string(m[2])
	}
	want, err := exec.Command(bin, opArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("in-process run: %v\n%s", err, want)
	}
	if regexp.MustCompile(`mr\.tasks\.dispatched`).Match(want) {
		t.Fatalf("the in-process run reports dispatched tasks:\n%s", want)
	}

	// A free port for the master: the workers must be told it up front.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	driver := exec.Command(bin, append(opArgs, "-master-listen", addr, "-min-workers", "2", "-workers-wait", "30s", "-replication", "2")...)
	var got bytes.Buffer
	driver.Stdout, driver.Stderr = &got, &got
	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	defer driver.Process.Kill()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the master never listened on %s:\n%s", addr, got.Bytes())
		}
	}
	for i := 0; i < 2; i++ {
		w := exec.Command(bin, "worker", "-master", addr, "-dir", filepath.Join(dir, fmt.Sprint("spill-", i)))
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Wait()
		defer w.Process.Kill()
	}
	if err := driver.Wait(); err != nil {
		t.Fatalf("distributed run: %v\n%s", err, got.Bytes())
	}
	if g, w := resultLine(got.Bytes()), resultLine(want); g != w {
		t.Errorf("distributed run printed\n  %s\nin-process run printed\n  %s", g, w)
	}
	m := regexp.MustCompile(`mr\.tasks\.dispatched\s+(\d+)`).FindSubmatch(got.Bytes())
	if m == nil || string(m[1]) == "0" {
		t.Errorf("the metrics summary shows no dispatched task; the job ran in process:\n%s", got.Bytes())
	}
}
