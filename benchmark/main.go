// Command benchmark is the repository's one benchmark: five workloads,
// seven end-to-end metrics each, and a per-layer ledger measured from
// outside the program. See README.md in this directory.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one workload, one result line
//	benchmark -all -seed N -out FILE                          every workload, each in a fresh process
//	benchmark -sets K -seed N                                 K sets, then their spread
//	benchmark -compare A.json B.json                          B against A, metric by metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runSeconds is the measured window BENCHMARK.json fixes; -all and -sets
// use it unless told otherwise.
const runSeconds = 15

func (c runConfig) env() environment { return currentEnv(c.seed, c.window, c.scale) }

// setupReps is how many times a timed run sets up: set-up time is the
// median of three because a single set-up swings with the page cache and
// the scheduler. A traced run reports no set-up time and sets up once.
func (c runConfig) setupReps() int {
	if c.traced {
		return 1
	}
	return 3
}

// A traced run spends its seconds on a short untraced window — the base
// of the tracing overhead — and then the traced pass, at most 8 s.
func (c runConfig) timedWindow() time.Duration {
	if c.traced {
		return c.window * 3 / 10
	}
	return c.window
}

func (c runConfig) tracedWindow() time.Duration {
	return min(c.window/2, 8*time.Second)
}

func (c runConfig) tracePath() string {
	return filepath.Join(c.outDir, c.workload+".trace.jsonl")
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		res *result
		err error
	)
	switch cfg.workload {
	case wServeHot:
		res, err = runServe(cfg, false)
	case wServeSharded:
		res, err = runServe(cfg, true)
	case wJobsInproc:
		res, err = runJobs(cfg, false)
	case wJobsRemote:
		res, err = runJobs(cfg, true)
	case wIngestQuery:
		res, err = runIngest(cfg)
	}
	if err != nil {
		return nil, err
	}
	// A timed run reports the end-to-end metrics and a traced run the
	// ledger, never a mixture.
	keep := endToEnd
	if cfg.traced {
		keep = perLayer
	}
	kept := make(map[string]metricValue, len(keep))
	for _, m := range keep {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, m.Name)
		}
		kept[m.Name] = v
	}
	res.Metrics = kept
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

func (r *result) path(outDir string) string {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	return filepath.Join(outDir, r.Workload+"."+kind+".result.json")
}

func writeJSON(path string, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// print writes every metric by name with its unit, then the contract's
// result line last.
func (r *result) print() error {
	order := endToEnd
	if r.Traced {
		order = perLayer
	}
	fmt.Printf("# %s seed=%d window=%gs samples=%d digest=%s\n", r.Workload, r.Env.Seed, r.Env.WindowS, r.Samples, r.Digest)
	for _, m := range order {
		v := r.Metrics[m.Name]
		fmt.Printf("%-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("# PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(r.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "seed of the generated data, queries and schedule")
		seconds  = flag.Int("seconds", runSeconds, "measured window per workload, in seconds")
		trace    = flag.Int("trace", -1, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer ledger); -all runs both by default")
		scale    = flag.Float64("scale", 1, "corpus scale; 1 is the benchmark, tests use less")
		outDir   = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for traces and per-workload results")
		all      = flag.Bool("all", false, "run every workload, each in a fresh child process")
		out      = flag.String("out", "", "with -all: also write the set to this file")
		sets     = flag.Int("sets", 0, "run this many timed sets back to back (seeds seed, seed+1, …) and print their spread")
		compare  = flag.Bool("compare", false, "compare two set files: -compare BASE.json NEW.json")
	)
	flag.Parse()
	err := func() error {
		if *seconds < 1 || *scale <= 0 {
			return errors.New("-seconds and -scale must be positive")
		}
		cfg := runConfig{
			workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
			traced: *trace == 1, scale: *scale, outDir: *outDir,
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare wants two set files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *sets > 0:
			return runSets(*sets, cfg)
		case *all:
			return runAll(cfg, *trace, *out)
		case *workload != "":
			return runOne(cfg)
		}
		return errors.New("nothing to do: give -workload, -all, -sets or -compare")
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but whose answers or path were
// wrong; the result was still printed.
var errIncorrect = errors.New("the run was not correct")

// runOne is the benchmark contract's entry: one workload in this process,
// its result written to the out directory and printed.
func runOne(cfg runConfig) error {
	if !isWorkload(cfg.workload) {
		return fmt.Errorf("unknown workload %q; have %v", cfg.workload, workloadNames())
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := writeJSON(res.path(cfg.outDir), res); err != nil {
		return err
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
