package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/worker"
)

// This file wires the distributed runtime into the CLI: "shadoop worker"
// runs a worker process, and the -master-listen flag family turns the
// batch driver (or "shadoop serve") into a master that executes
// jobs on registered workers instead of in process.

// masterFlags bundles the master-runtime flags shared by the batch driver
// and the serve subcommand.
type masterFlags struct {
	listen      *string
	minWorkers  *int
	workersWait *time.Duration
	heartbeat   *time.Duration
	lease       *time.Duration
	replication *int
	eventsFile  *string
	hbFile      *string
}

// registerMasterFlags adds the -master-* flags to fs.
func registerMasterFlags(fs *flag.FlagSet) *masterFlags {
	return &masterFlags{
		listen:      fs.String("master-listen", "", "start a master runtime on this address (e.g. 127.0.0.1:7070); jobs run on registered workers"),
		minWorkers:  fs.Int("min-workers", 0, "wait for this many live workers before running (requires -master-listen)"),
		workersWait: fs.Duration("workers-wait", 30*time.Second, "how long to wait for -min-workers"),
		heartbeat:   fs.Duration("heartbeat", 100*time.Millisecond, "worker heartbeat interval"),
		lease:       fs.Duration("lease", 0, "worker lease duration (0 = 10x heartbeat)"),
		replication: fs.Int("replication", 0, "push this many replicas of each input block onto workers so maps read locally (0 = no replicas, every block read from the master)"),
		eventsFile:  fs.String("master-events", "", "write the master's fault events (registrations, lease expiries, kills, re-issues, replica placement) as JSONL to this file"),
		hbFile:      fs.String("heartbeat-log", "", "write one JSONL event per worker heartbeat to this file"),
	}
}

// start launches the master runtime when -master-listen was given, waits
// for -min-workers, and returns the master (nil when not requested).
func (mf *masterFlags) start(sys *core.System) (*mapreduce.Master, error) {
	if *mf.listen == "" {
		if *mf.minWorkers > 0 {
			return nil, fmt.Errorf("-min-workers requires -master-listen")
		}
		return nil, nil
	}
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		Addr:             *mf.listen,
		HeartbeatEvery:   *mf.heartbeat,
		Lease:            *mf.lease,
		Replication:      *mf.replication,
		Metrics:          sys.Metrics(),
		EnableKill:       true, // armed only by a -chaos-worker-kill plan
		RecordHeartbeats: *mf.hbFile != "",
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("master: listening on %s (heartbeat %v)\n", m.Addr(), *mf.heartbeat)
	if *mf.minWorkers > 0 {
		deadline := time.Now().Add(*mf.workersWait)
		for m.LiveWorkers() < *mf.minWorkers {
			if time.Now().After(deadline) {
				m.Stop()
				return nil, fmt.Errorf("master: %d/%d workers registered after %v",
					m.LiveWorkers(), *mf.minWorkers, *mf.workersWait)
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("master: %d workers registered\n", m.LiveWorkers())
	}
	return m, nil
}

// finish writes the requested master-side JSONL artifacts.
func (mf *masterFlags) finish(m *mapreduce.Master) error {
	if m == nil {
		return nil
	}
	if *mf.eventsFile != "" {
		if err := writeTrace(*mf.eventsFile, m.FaultLog().WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("master: wrote %s (%d fault events)\n", *mf.eventsFile, len(m.FaultLog().Events()))
	}
	if *mf.hbFile != "" {
		if err := writeTrace(*mf.hbFile, m.HeartbeatLog().WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("master: wrote %s (%d heartbeats)\n", *mf.hbFile, len(m.HeartbeatLog().Events()))
	}
	return nil
}

// runWorker is the "shadoop worker" subcommand: a worker process that
// serves one master until SIGTERM/SIGINT.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		master = fs.String("master", "", "master RPC address to register with (required)")
		dir    = fs.String("dir", "", "spill directory for intermediate shards (default: a fresh temp dir)")
		tasks  = fs.Int("tasks", 2, "concurrently executing tasks")
		listen = fs.String("listen", "127.0.0.1:0", "shard-serving listen address")
		stasks = fs.Bool("serve-tasks", false, "accept sharded-serving exec calls (pin replica partitions and answer range/kNN fragments)")
		stier  = fs.Int64("serve-tier-bytes", 0, "serving tier budget in bytes (0 = 64 MiB default; only with -serve-tasks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := worker.Start(worker.Config{Master: *master, Dir: *dir, Tasks: *tasks, Listen: *listen,
		ServeTasks: *stasks, ServeTierBytes: *stier})
	if err != nil {
		return err
	}
	fmt.Printf("worker: id %d serving shards on %s (spill dir %s, %d task slots)\n",
		w.ID(), w.Addr(), w.Dir(), *tasks)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Printf("worker: %v: stopping\n", sig)
	w.Stop()
	w.Wait()
	return nil
}
