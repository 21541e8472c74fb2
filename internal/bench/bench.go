// Package bench implements the evaluation harness: one experiment per
// table and figure of the paper's evaluation section (§10). Each
// experiment generates its workload, runs every algorithm variant the
// paper compares, and prints the same rows/series the paper plots —
// runtimes per input size, partitions processed, fraction of records
// pruned. Absolute numbers reflect the simulated cluster, but the shapes
// (who wins, by what factor, where variants fail or flatten) mirror the
// paper.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/mapreduce"
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
	// W receives the result tables.
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

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) error
}

// registry of all experiments, populated by the per-figure files.
var registry []Experiment

func register(name, title string, run func(Config) error) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// Experiments returns all registered experiments sorted by name.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment ("all" runs every one, sorted by name).
func Run(name string, cfg Config) error {
	cfg = cfg.withDefaults()
	selected := Experiments()
	if name != "all" {
		selected = nil
		for _, e := range registry {
			if e.Name == name {
				selected = []Experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("bench: unknown experiment %q (try \"all\")", name)
		}
	}
	for _, e := range selected {
		fmt.Fprintf(cfg.W, "\n================ %s — %s ================\n", e.Name, e.Title)
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("bench %s: %w", e.Name, err)
		}
	}
	return nil
}

// table is a tiny fixed-width table printer.
type table struct {
	w      io.Writer
	header []string
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	return &table{w: w, header: header}
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(t.w, "  ")
			}
			fmt.Fprintf(t.w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(t.w)
	}
	printRow(t.header)
	for i, w := range widths {
		if i > 0 {
			fmt.Fprint(t.w, "  ")
		}
		for j := 0; j < w; j++ {
			fmt.Fprint(t.w, "-")
		}
	}
	fmt.Fprintln(t.w)
	for _, r := range t.rows {
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
	fail := func(err error) { fmt.Fprintf(cfg.W, "obs: %s: %v\n", name, err) }
	if err := os.MkdirAll(cfg.ObsDir, 0o755); err != nil {
		fail(err)
		return
	}
	tf, err := os.Create(filepath.Join(cfg.ObsDir, name+".trace.jsonl"))
	if err != nil {
		fail(err)
		return
	}
	if err := rep.Trace.WriteJSONL(tf); err == nil {
		err = tf.Close()
		if err != nil {
			fail(err)
		}
	} else {
		tf.Close()
		fail(err)
	}
	if rep.Metrics != nil {
		data, err := json.MarshalIndent(rep.Metrics, "", "  ")
		if err != nil {
			fail(err)
			return
		}
		if err := os.WriteFile(filepath.Join(cfg.ObsDir, name+".metrics.json"), data, 0o644); err != nil {
			fail(err)
		}
	}
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// ms formats a duration in milliseconds for the tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// simDur estimates what a distributed run would take on the configured
// cluster: the job's LPT makespan plus whatever the caller spent outside
// the job (master-side post-processing such as the Voronoi H-merge).
func simDur(wall time.Duration, rep *mapreduce.Report, workers int) time.Duration {
	master := wall - rep.Total
	if master < 0 {
		master = 0
	}
	return rep.SimulatedParallel(workers) + master
}

// speedup formats base/other as "12.3x".
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}
