// Command shbench reproduces the paper's evaluation: one experiment per
// table and figure of §10 (plus the SIGMOD'14 system operations and a set
// of ablations). Run a single experiment with -exp fig24, everything with
// -exp all, and list the catalogue with -list.
//
// Usage:
//
//	shbench -list
//	shbench -exp fig22 -scale 0.5
//	shbench -exp all -workers 25 > results.txt
//
// Profiling and observability:
//
//	-cpuprofile cpu.pprof   capture a CPU profile of the run
//	-memprofile mem.pprof   capture a heap profile at exit
//	-obsdir obs/            persist job traces (.trace.jsonl) and metric
//	                        snapshots (.metrics.json) next to the tables
//
// Profiles open with `go tool pprof`; traces with chrome://tracing after
// conversion, or directly with any JSONL reader.
//
// Chaos: every experiment accepts the shared seeded fault plan flags
// (-chaos-seed, -chaos-map-fail, -chaos-corrupt, -chaos-straggler, and
// the worker-kill family -chaos-worker-kill / -chaos-kill-phase /
// -chaos-kill-holder / -chaos-kill-budget) and must produce the same
// tables as the fault-free run; only timings move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"spatialhadoop/internal/bench"
	"spatialhadoop/internal/fault"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shbench:", err)
		os.Exit(1)
	}
}

// run is the whole command; returning (rather than exiting) lets the
// deferred profile teardown happen on the failure path too.
func run() (err error) {
	var (
		exp        = flag.String("exp", "all", "experiment to run (see -list)")
		scale      = flag.Float64("scale", 1.0, "dataset size multiplier")
		workers    = flag.Int("workers", 25, "simulated cluster size")
		blockSize  = flag.Int64("blocksize", 256<<10, "DFS block size in bytes")
		seed       = flag.Int64("seed", 1, "workload seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		obsDir     = flag.String("obsdir", "", "persist job traces and metric snapshots into this directory")
	)
	chaosPlan := fault.PlanFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.Name, e.Title)
		}
		return nil
	}

	// keep records a teardown failure unless the run already failed.
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if *cpuProfile != "" {
		var f *os.File
		if f, err = os.Create(*cpuProfile); err != nil {
			return err
		}
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			keep(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() { keep(writeHeapProfile(*memProfile)) }()
	}

	return bench.Run(*exp, bench.Config{
		Scale:     *scale,
		Workers:   *workers,
		BlockSize: *blockSize,
		Seed:      *seed,
		W:         os.Stdout,
		ObsDir:    *obsDir,
		Chaos:     chaosPlan(),
	})
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
