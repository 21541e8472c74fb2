package proptest

import (
	"sync"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/worker"
)

// Execution-engine knob: a Case can run its system on the in-process
// scheduler (the default) or under the real distributed runtime — an
// in-test master with a replicated data plane and N goroutine workers.
// Every differential check and invariant works unchanged under either
// engine, which is the point: the remote path is held to byte identity
// against the same brute-force oracles as the in-process path.

// Engine selects a Case's execution engine.
type Engine int

const (
	// EngineInProcess runs jobs on the in-process scheduler.
	EngineInProcess Engine = iota
	// EngineRemote runs jobs on an in-test master/worker pool — every job:
	// a job is a registered kind plus its configuration, which any worker
	// builds its functions from.
	EngineRemote
	// EngineSharded is EngineRemote with serve-capable workers: the pool
	// additionally answers the serving layer's sharded scatter calls, so a
	// Planner: "sharded" server routes partition fragments to real replica
	// holders instead of degenerating to master-local execution.
	EngineSharded
)

// DefaultRemoteWorkers is the remote engine's pool size when a Case does
// not choose one.
const DefaultRemoteWorkers = 2

var (
	engineMu      sync.Mutex
	engineClosers []func()
)

// trackEngine records a runtime teardown to run at the end of the
// current check (see CloseEngines).
func trackEngine(close func()) {
	engineMu.Lock()
	engineClosers = append(engineClosers, close)
	engineMu.Unlock()
}

// CloseEngines tears down every remote runtime started since the last
// call. The harness calls it after each check execution (including every
// shrink probe), so a check may build several remote systems and leak
// none.
func CloseEngines() {
	engineMu.Lock()
	closers := engineClosers
	engineClosers = nil
	engineMu.Unlock()
	for _, close := range closers {
		close()
	}
}

// StartRemoteRuntime attaches a distributed runtime to a system: a
// master with the data plane on (replication 2) and n goroutine workers,
// all registered before it returns. The returned function tears the
// runtime down.
func StartRemoteRuntime(sys *core.System, n int) func() {
	return startRuntime(sys, n, 2, false)
}

// StartShardedRuntime is StartRemoteRuntime with serve-capable workers
// (Config.ServeTasks) and a chosen replication factor, for byte-identity
// sweeps of the sharded serving engine across pool sizes and replica
// counts.
func StartShardedRuntime(sys *core.System, n, replication int) func() {
	return startRuntime(sys, n, replication, true)
}

func startRuntime(sys *core.System, n, replication int, serveTasks bool) func() {
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          100 * time.Millisecond,
		Metrics:        sys.Metrics(),
		Replication:    replication,
	})
	if err != nil {
		panic(sprintf("proptest: start master: %v", err))
	}
	pidBase := 9000
	if serveTasks {
		pidBase = 9100
	}
	workers := make([]*worker.Worker, 0, n)
	stop := func() {
		for _, w := range workers {
			w.Stop()
		}
		m.Stop()
	}
	for i := 0; i < n; i++ {
		w, err := worker.Start(worker.Config{Master: m.Addr(), Tasks: 2, FakePID: pidBase + i, ServeTasks: serveTasks})
		if err != nil {
			stop()
			panic(sprintf("proptest: start worker %d: %v", i, err))
		}
		workers = append(workers, w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.LiveWorkers() < n {
		if time.Now().After(deadline) {
			stop()
			panic(sprintf("proptest: %d workers never registered", n))
		}
		time.Sleep(time.Millisecond)
	}
	return stop
}
