// Package bench implements the evaluation harness: one experiment per
// table and figure of the paper's evaluation section (§10). Each
// experiment generates its workload, runs every algorithm variant the
// paper compares, and prints the same rows/series the paper plots —
// runtimes per input size, partitions processed, fraction of records
// pruned. Absolute numbers reflect the simulated cluster, but the shapes
// (who wins, by what factor, where variants fail or flatten) mirror the
// paper. Each experiment states its EXPERIMENTS.md row as checks over the
// values it measured and prints their outcome under its table; a failed
// check fails the run.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every dataset size; 1.0 is the laptop-sized default.
	Scale float64
	// Workers is the simulated cluster size (default 25, as in the paper).
	Workers int
	// BlockSize is the DFS block capacity driving the partition count.
	BlockSize int64
	// Seed makes runs reproducible.
	Seed int64
	// W receives the result tables and check lines.
	W io.Writer
	// ObsDir, when non-empty, receives per-job observability artifacts:
	// <name>.trace.jsonl (the span log) and <name>.metrics.json (the
	// metrics snapshot) for the jobs the experiments persist.
	ObsDir string
	// Chaos is the seeded fault plan installed on every system the
	// experiments stand up; a disabled plan injects nothing. Because
	// injection is deterministic and retried work is idempotent, results
	// match the fault-free run — only the timings change.
	Chaos fault.Plan
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = 25
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// n scales a dataset size.
func (c Config) n(base int) int {
	v := int(float64(base) * c.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// recorded reports whether c is the configuration EXPERIMENTS.md records
// (shbench's defaults). Claims about time are checked there only: the
// simulated makespans of a smaller run are too short to compare.
func (c Config) recorded() bool {
	return c.Scale == 1 && c.Workers == 25 && c.BlockSize == 256<<10 && !c.Chaos.Enabled()
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	Title string
	run   func(*exp) error
}

// registry of all experiments, populated by the per-figure files.
var registry []Experiment

func register(name, title string, run func(*exp) error) {
	registry = append(registry, Experiment{Name: name, Title: title, run: run})
}

// Experiments returns all registered experiments sorted by name.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment ("all" runs every one, sorted by name).
// Each experiment checks its EXPERIMENTS.md row over what it measured;
// Run returns an error listing every failed check.
func Run(name string, cfg Config) error {
	cfg = cfg.withDefaults()
	selected := Experiments()
	if name != "all" {
		i := slices.IndexFunc(selected, func(e Experiment) bool { return e.Name == name })
		if i < 0 {
			return fmt.Errorf("bench: unknown experiment %q (try \"all\")", name)
		}
		selected = selected[i : i+1]
	}
	var failed []error
	for _, e := range selected {
		fmt.Fprintf(cfg.W, "\n================ %s — %s ================\n", e.Name, e.Title)
		x := &exp{Config: cfg, name: e.Name}
		if err := e.run(x); err != nil {
			return fmt.Errorf("bench %s: %w", e.Name, err)
		}
		if x.checks == 0 {
			return fmt.Errorf("bench %s: states no shape check", e.Name)
		}
		failed = append(failed, x.failed...)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: %d shape checks failed:\n%w", len(failed), errors.Join(failed...))
	}
	return nil
}

// exp is one experiment's run: the config it measures under, and the
// outcome of the shape checks it states over what it measured.
type exp struct {
	Config
	name   string
	checks int
	failed []error
}

// system stands up a fresh simulated cluster.
func (x *exp) system() *core.System {
	return core.New(core.Config{BlockSize: x.BlockSize, Workers: x.Workers, Seed: x.Seed, Fault: x.Chaos})
}

// check prints the outcome of one shape claim and records its failure.
func (x *exp) check(name string, ok bool, format string, args ...any) {
	x.checks++
	msg := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "FAIL"
		x.failed = append(x.failed, fmt.Errorf("%s %s: %s", x.name, name, msg))
	}
	fmt.Fprintf(x.W, "check %-4s %s: %s\n", status, name, msg)
}

// checkTime is check for a claim about time, which holds only at the
// recorded configuration; elsewhere it is reported as skipped.
func (x *exp) checkTime(name string, ok bool, format string, args ...any) {
	if x.recorded() {
		x.check(name, ok, format, args...)
		return
	}
	x.checks++
	fmt.Fprintf(x.W, "check skip %s: a claim about time, checked at the recorded configuration only\n", name)
}

// op is a distributed operation over one file of a system.
type op[T any] func(*core.System, string) (T, *mapreduce.Report, error)

// run is one measured MapReduce job: its result, its report, its wall
// time, and the time it would take on the configured cluster (the job's
// LPT makespan plus what the caller spent outside the job, such as the
// Voronoi H-merge on the master).
type run[T any] struct {
	res T
	*mapreduce.Report
	wall, sim time.Duration
}

// runJob times f over file and measures the job it ran.
func runJob[T any](x *exp, sys *core.System, file string, f op[T]) (run[T], error) {
	start := time.Now()
	res, rep, err := f(sys, file)
	if err != nil {
		return run[T]{}, err
	}
	wall := time.Since(start)
	return run[T]{res: res, Report: rep, wall: wall, sim: rep.SimulatedParallel(x.Workers) + max(wall-rep.Total, 0)}, nil
}

// heapVsIndex runs Hadoop's algorithm over pts stored on sys as the heap
// file "heap", and SpatialHadoop's over pts indexed by tech as "idx".
func heapVsIndex[T any](x *exp, sys *core.System, pts []geom.Point, tech sindex.Technique, hadoop, shadoop op[T]) (h, s run[T], err error) {
	if err = sys.LoadPointsHeap("heap", pts); err != nil {
		return
	}
	if h, err = runJob(x, sys, "heap", hadoop); err != nil {
		return
	}
	if _, err = sys.LoadPoints("idx", pts, tech); err != nil {
		return
	}
	s, err = runJob(x, sys, "idx", shadoop)
	return
}

// clock times a single-machine baseline.
func clock(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// speedup is a ratio of two times; a table prints it as "12.3x".
type speedup float64

func ratio(base, other time.Duration) speedup { return speedup(float64(base) / float64(other)) }

// table is a fixed-width table. Its cells stay values until flush formats
// them, so the checks read numbers (col), not text.
type table struct {
	header []string
	rows   [][]any
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...any) { t.rows = append(t.rows, cells) }

// vals is a table column as numbers; it prints as the check lines quote it.
type vals []float64

func (v vals) String() string {
	parts := make([]string, len(v))
	for i, f := range v {
		if f == math.Trunc(f) {
			parts[i] = strconv.FormatFloat(f, 'f', 0, 64)
		} else {
			parts[i] = strconv.FormatFloat(f, 'f', 2, 64)
		}
	}
	return strings.Join(parts, " ")
}

// col returns the named column as numbers: durations in nanoseconds,
// counts and ratios as they are. A text column is a bug in the caller.
func (t *table) col(name string) vals {
	i := slices.Index(t.header, name)
	if i < 0 {
		panic("bench: no column " + name)
	}
	out := make(vals, len(t.rows))
	for r, row := range t.rows {
		out[r] = reflect.ValueOf(row[i]).Convert(reflect.TypeFor[float64]()).Float()
	}
	return out
}

// cell formats one value: durations in milliseconds, ratios as "12.3x".
func cell(v any) string {
	switch v := v.(type) {
	case time.Duration:
		return fmt.Sprintf("%.1f", float64(v.Microseconds())/1000)
	case speedup:
		return fmt.Sprintf("%.1fx", float64(v))
	case float64:
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprint(v)
}

// increasing reports whether xs grows strictly.
func increasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// atMost reports whether a[i] <= b[i] on every row.
func atMost(a, b []float64) bool {
	for i := range b {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// prunes reports whether a pruned count (partitions processed, vertices
// merged) is no more than the unpruned one on every row, and at most half
// of it on the last.
func prunes(filtered, all []float64) bool {
	return atMost(filtered, all) && last(filtered) <= last(all)/2
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func (t *table) flush(w io.Writer) {
	rows := make([][]string, len(t.rows))
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for r, row := range t.rows {
		for i, v := range row {
			c := cell(v)
			rows[r] = append(rows[r], c)
			widths[i] = max(widths[i], len(c))
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	dashes := make([]string, len(widths))
	for i, n := range widths {
		dashes[i] = strings.Repeat("-", n)
	}
	printRow(dashes)
	for _, r := range rows {
		printRow(r)
	}
}

// persistObs writes a job's trace and metrics snapshot into cfg.ObsDir,
// so a benchmark run leaves per-task evidence next to its timing tables.
// It is a no-op without -obsdir; persistence failures are reported on the
// result writer but do not fail the experiment.
func persistObs(cfg Config, name string, rep *mapreduce.Report) {
	if cfg.ObsDir == "" || rep == nil || rep.Trace == nil {
		return
	}
	var trace bytes.Buffer
	err := os.MkdirAll(cfg.ObsDir, 0o755)
	if err == nil {
		err = rep.Trace.Snapshot().WriteJSONL(&trace)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.ObsDir, name+".trace.jsonl"), trace.Bytes(), 0o644)
	}
	if err == nil && rep.Metrics != nil {
		var data []byte
		if data, err = json.MarshalIndent(rep.Metrics, "", "  "); err == nil {
			err = os.WriteFile(filepath.Join(cfg.ObsDir, name+".metrics.json"), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(cfg.W, "obs: %s: %v\n", name, err)
	}
}
