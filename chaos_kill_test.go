// Worker-kill rows of the chaos soak matrix: a seeded decision kills a
// live worker during map execution, during shuffle fetch (the holder of
// finished shards), or during reduce execution — 3 modes x 3 seeds, each
// required to produce output byte-identical to the fault-free in-process
// run, and to replay deterministically. Workers run as goroutines here
// (the real-process variant lives in distributed_test.go); the kill
// harness routes the master's victim pid back onto Worker.Stop, which is
// process death from the runtime's point of view: heartbeats stop, the
// lease expires, spill files vanish.
package spatialhadoop_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// killMode is one row of the worker-kill matrix.
type killMode struct {
	name          string
	op            string // chaosOps entry to run
	phase         string
	holder        bool
	replicaHolder bool // kill the replica holder of the map split's input
	replication   int  // data-plane replication factor (0 = no replicas)
}

func killModes() []killMode {
	return []killMode{
		{name: "during-map", op: "rangequery", phase: mapreduce.TaskMap},
		// Skyline keeps a single-reducer merge; kNN, a selection job, has none.
		{name: "during-shuffle-fetch", op: "skyline", phase: mapreduce.TaskReduce, holder: true},
		{name: "during-reduce", op: "skyline", phase: mapreduce.TaskReduce},
		// Replication 1 makes the victim the *sole* holder of its blocks:
		// the re-issued map must fall back to master reads and the plane
		// must re-replicate the lost blocks onto the survivor.
		{name: "replica-holder", op: "rangequery", phase: mapreduce.TaskMap, replicaHolder: true, replication: 1},
	}
}

func chaosOpByName(t *testing.T, name string) chaosOp {
	t.Helper()
	for _, op := range chaosOps() {
		if op.name == name {
			return op
		}
	}
	t.Fatalf("no chaos op %q", name)
	return chaosOp{}
}

// distChaosRun runs op on a system whose cluster has a master and two
// goroutine workers, under plan, and returns the output records, the
// master's fault log and the system metrics registry.
func distChaosRun(t *testing.T, op chaosOp, tech sindex.Technique, plan fault.Plan, replication int) ([]string, *mapreduce.Report, *fault.Log, *obs.Registry) {
	t.Helper()
	sys := core.New(core.Config{BlockSize: 8 << 10, Workers: 6, Seed: 1, Fault: plan})
	sys.Cluster().SetRetryPolicy(chaosPolicy())

	var mu sync.Mutex
	workers := map[int]*worker.Worker{}
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          50 * time.Millisecond,
		Metrics:        sys.Metrics(),
		Replication:    replication,
		EnableKill:     true,
		KillFn: func(pid int) error {
			mu.Lock()
			w := workers[pid]
			mu.Unlock()
			if w != nil {
				w.Stop()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for i := 0; i < 2; i++ {
		pid := 2000 + i
		w, err := worker.Start(worker.Config{Master: m.Addr(), Dir: t.TempDir(), Tasks: 2, FakePID: pid})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		workers[pid] = w
		mu.Unlock()
		defer w.Stop()
	}
	deadline := time.Now().Add(time.Second)
	for m.LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register in time")
		}
		time.Sleep(time.Millisecond)
	}

	op.setup(t, sys, tech)
	rep, err := op.run(sys)
	if err != nil {
		t.Fatalf("%s under %+v: %v", op.name, plan, err)
	}
	// The holder-kill job can finish before the victim's lease expires;
	// hold the master open until the loss is recorded so every cell's
	// fault log carries the full kill -> lease-expiry sequence.
	if plan.WorkerKillRate > 0 {
		deadline := time.Now().Add(2 * time.Second)
		for m.LiveWorkers() > 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the killed worker's lease never expired", op.name)
			}
			time.Sleep(time.Millisecond)
		}
		// The live-worker count drops before the data plane's synchronous
		// re-replication pushes finish; hold the runtime open until they
		// land so the caller's fault-log assertions see them.
		if replication > 0 {
			for countKind(m.FaultLog(), "re-replicate") == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: worker loss triggered no re-replication", op.name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	out, err := sys.FS().ReadAll(rep.OutputFile)
	if err != nil {
		t.Fatalf("%s: reading %s: %v", op.name, rep.OutputFile, err)
	}
	return out, rep, m.FaultLog(), sys.Metrics()
}

func countKind(l *fault.Log, kind string) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestChaosWorkerKill is the worker-kill soak: every mode x seed cell
// must survive the death of a real worker (its spills gone with it) with
// byte-identical output, and replay deterministically.
func TestChaosWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-kill soak is not -short")
	}
	seeds := []int64{1, 2, 3}
	for _, mode := range killModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			op := chaosOpByName(t, mode.op)
			// Fault-free in-process oracle for this op.
			want, _, _ := chaosRun(t, op, sindex.STR, fault.Plan{})
			for _, seed := range seeds {
				plan := fault.Plan{
					Seed:                    seed,
					WorkerKillRate:          1.0,
					WorkerKillPhase:         mode.phase,
					WorkerKillHolder:        mode.holder,
					WorkerKillReplicaHolder: mode.replicaHolder,
					KillBudget:              1,
				}
				cell := fmt.Sprintf("%s-seed%d", mode.name, seed)
				got, _, flog, reg := distChaosRun(t, op, sindex.STR, plan, mode.replication)
				if kills := countKind(flog, "worker-kill"); kills != 1 {
					t.Fatalf("%s: %d worker-kills fired, want exactly 1", cell, kills)
				}
				if countKind(flog, "worker-lost") == 0 {
					t.Fatalf("%s: the killed worker's lease never expired", cell)
				}
				if mode.replicaHolder {
					if countKind(flog, "replicate") == 0 {
						t.Fatalf("%s: no blocks were ever replicated; the data plane was off", cell)
					}
					if countKind(flog, "re-replicate") == 0 {
						t.Fatalf("%s: lost replicas were not re-replicated onto the survivor", cell)
					}
					if reg.Counter(mapreduce.MetricDFSLocalReads)+reg.Counter(mapreduce.MetricDFSRemoteReads) == 0 {
						t.Fatalf("%s: no map input was read through the data plane", cell)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d records under worker kill vs %d fault-free", cell, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: record %d diverged under worker kill", cell, i)
					}
				}

				// Deterministic replay: same seed, same output, same kill.
				replay, _, rlog, _ := distChaosRun(t, op, sindex.STR, plan, mode.replication)
				if len(replay) != len(got) {
					t.Fatalf("%s: replay changed output size: %d vs %d", cell, len(replay), len(got))
				}
				for i := range got {
					if replay[i] != got[i] {
						t.Fatalf("%s: replay changed record %d", cell, i)
					}
				}
				if countKind(rlog, "worker-kill") != 1 {
					t.Fatalf("%s: replay fired %d kills, want 1", cell, countKind(rlog, "worker-kill"))
				}
			}
		})
	}
}
