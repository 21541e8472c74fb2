package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// series is one workload's metrics over one or more sets: every metric
// maps to one value per set, in set order.
type series struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
}

// setFile is what -all and -sets write and -compare reads.
type setFile struct {
	Envs      []environment      `json:"envs"`
	Workloads map[string]*series `json:"workloads"`
}

func (s *setFile) correct() bool {
	for _, w := range s.Workloads {
		if w.Failed != 0 || len(w.Problems) != 0 {
			return false
		}
	}
	return true
}

// fold appends one run's metrics to the workload's series.
func (s *setFile) fold(r *result) {
	w := s.Workloads[r.Workload]
	if w == nil {
		w = &series{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		s.Workloads[r.Workload] = w
	}
	into := w.EndToEnd
	if r.Traced {
		into = w.PerLayer
	}
	for name, v := range r.Metrics {
		into[name] = append(into[name], v.Value)
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Problems = append(w.Problems, r.Problems...)
}

// child re-executes the harness for one workload so that peak memory, the
// decoded-block cache and the memory tier never leak between workloads.
// A child that exits non-zero fails the set with its exit status.
func child(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.window/time.Second)),
		"-trace", trace,
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-outdir", cfg.outDir)
	cmd.Stderr = os.Stderr
	// The child's own metric listing is dropped; the set prints one table.
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", cfg.workload, trace, err)
	}
	res := &result{Workload: cfg.workload, Traced: cfg.traced}
	body, err := os.ReadFile(res.path(cfg.outDir))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, res); err != nil {
		return nil, err
	}
	return res, nil
}

// run adds one set to s: every workload once, a timed run and then a
// traced run, each in its own process. trace 0 or 1 restricts the set to
// that kind of run.
func (s *setFile) run(cfg runConfig, trace int) error {
	digests := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if trace == 0 && traced || trace == 1 && !traced {
				continue
			}
			cfg.workload, cfg.traced = w.Name, traced
			fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d traced=%v\n", w.Name, cfg.seed, traced)
			res, err := child(cfg)
			if err != nil {
				return err
			}
			if !traced {
				s.Envs = append(s.Envs, res.Env)
				digests[w.Name] = res.Digest
			}
			s.fold(res)
		}
	}
	// The same seed must give the same answers in process and on workers.
	if in, re := digests[wJobsInproc], digests[wJobsRemote]; in != "" && re != "" && in != re {
		ws := s.Workloads[wJobsRemote]
		ws.Problems = append(ws.Problems, fmt.Sprintf("seed %d: answers digest %s differs from jobs-inproc's %s", cfg.seed, re, in))
	}
	return nil
}

func newSetFile() *setFile { return &setFile{Workloads: map[string]*series{}} }

// runAll is -all: one set, printed and optionally written to out.
func runAll(cfg runConfig, trace int, out string) error {
	set := newSetFile()
	if err := set.run(cfg, trace); err != nil {
		return err
	}
	set.print()
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return err
		}
	}
	if !set.correct() {
		return errIncorrect
	}
	return nil
}

func (s *setFile) print() {
	for _, w := range workloads {
		ws := s.Workloads[w.Name]
		if ws == nil {
			continue
		}
		fmt.Printf("== %s  attempted=%d failed=%d\n", w.Name, ws.Attempted, ws.Failed)
		for _, group := range []struct {
			specs  []metricSpec
			values map[string][]float64
		}{{endToEnd, ws.EndToEnd}, {perLayer, ws.PerLayer}} {
			for _, m := range group.specs {
				if v := group.values[m.Name]; len(v) > 0 {
					fmt.Printf("%-36s %14.4f %s\n", m.Name, median(v), m.Unit)
				}
			}
		}
		for _, p := range ws.Problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
	}
}

// runSets runs n timed sets back to back, seeds seed, seed+1, …, and
// prints each end-to-end metric's median, quartiles and spread: the
// repeatability evidence. Different seeds make this the harsher test — the
// inputs change as well as the moment.
func runSets(n int, cfg runConfig) error {
	all := newSetFile()
	for i := 0; i < n; i++ {
		if err := all.run(cfg, 0); err != nil {
			return err
		}
		cfg.seed++
	}
	fmt.Printf("%-14s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	steady := true
	for _, w := range workloads {
		ws := all.Workloads[w.Name]
		for _, m := range endToEnd {
			v := ws.EndToEnd[m.Name]
			q1, q3 := v[0], v[0]
			if len(v) >= 2 {
				q1, q3 = quartiles(v)
			}
			mark := ""
			if sp := spread(v); sp > m.Bound && m.Name != "setup_s" {
				steady, mark = false, "  wider than the bound"
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %12.4f %8.3f %6.2f%s\n", w.Name, m.Name, median(v), q1, q3, spread(v), m.Bound, mark)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "sets.json"), all); err != nil {
		return err
	}
	if !all.correct() {
		return errIncorrect
	}
	if !steady {
		return errors.New("a spread is wider than its bound")
	}
	return nil
}

func readSet(path string) (*setFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &setFile{}
	if err := json.Unmarshal(body, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares new against base for one metric: worse when new's median
// is worse than base's by more than the bound's share of it, and
// unresolved, not unchanged, when either side's own spread is wider than
// the bound.
func judge(m metricSpec, base, new []float64) string {
	b, n := median(base), median(new)
	worse := ratio(n-b, math.Abs(b))
	if m.Better == higher {
		worse = -worse
	}
	switch {
	case spread(base) > m.Bound || spread(new) > m.Bound:
		return verdictUnresolved
	case worse > m.Bound:
		return verdictWorse
	}
	return verdictOK
}

// compareFiles prints one row per (workload, end-to-end metric) and fails
// on any worse metric or on more failed operations than the base had.
func compareFiles(basePath, newPath string) error {
	base, err := readSet(basePath)
	if err != nil {
		return err
	}
	cur, err := readSet(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-16s %12s %12s %22s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		bw, nw := base.Workloads[w.Name], cur.Workloads[w.Name]
		if bw == nil || nw == nil {
			continue
		}
		for _, m := range endToEnd {
			bv, nv := bw.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			verdict := judge(m, bv, nv)
			if verdict == verdictWorse {
				worse++
			}
			b, n := median(bv), median(nv)
			fmt.Printf("%-14s %-16s %12.4f %12.4f %22s %6.2f  %s\n", w.Name, m.Name, b, n,
				fmt.Sprintf("%.3f (base %.4g)", ratio(n, b), b), m.Bound, verdict)
		}
		bf, nf := ratio(float64(bw.Failed), float64(bw.Attempted)), ratio(float64(nw.Failed), float64(nw.Attempted))
		verdict := verdictOK
		if nf > bf {
			verdict = verdictWorse
			worse++
		}
		fmt.Printf("%-14s %-16s %12.6f %12.6f %22s %6.2f  %s\n", w.Name, "failed_share", bf, nf, "", 0.0, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons came out worse", worse)
	}
	return nil
}
