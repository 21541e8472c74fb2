package bench

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestRegistryMatchesRecord checks the experiment registry and the
// recorded reproduction (bench_results.txt, one section per experiment)
// name the same set: every table/figure of the paper's evaluation is
// registered, and nothing is registered without a recorded result.
func TestRegistryMatchesRecord(t *testing.T) {
	data, err := os.ReadFile("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "================ ")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, " — ")
		if !ok {
			t.Errorf("malformed section header %q", line)
			continue
		}
		recorded[name] = true
	}
	for _, e := range Experiments() {
		if e.Title == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
		if !recorded[e.Name] {
			t.Errorf("experiment %q is registered but has no section in bench_results.txt", e.Name)
		}
		delete(recorded, e.Name)
	}
	for name := range recorded {
		t.Errorf("bench_results.txt records %q but no such experiment is registered", name)
	}
}

// TestShapes runs every experiment at a small configuration and fails on
// any shape check. The blocks are small enough that every sweep spans
// several partitions (at 256 KiB most of these inputs fit one cell);
// claims about time are skipped here.
func TestShapes(t *testing.T) {
	var out strings.Builder
	cfg := Config{Scale: 0.1, Workers: 8, BlockSize: 16 << 10, Seed: 1, W: &out}
	if err := Run("all", cfg); err != nil {
		t.Fatalf("%v\n\n%s", err, out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("fig99", Config{W: io.Discard}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestTinyExperimentRuns smoke-runs a small experiment end to end and
// checks the table output shape and its check lines.
func TestTinyExperimentRuns(t *testing.T) {
	var out strings.Builder
	cfg := Config{Scale: 0.02, Workers: 4, BlockSize: 32 << 10, Seed: 1, W: &out}
	if err := Run("fig24", cfg); err != nil {
		t.Fatalf("%v\n\n%s", err, out.String())
	}
	text := out.String()
	for _, col := range []string{"points", "single(ms)", "shadoop-sim(ms)", "shadoop-parts", "sh-speedup", "check ok   filter-prunes:"} {
		if !strings.Contains(text, col) {
			t.Errorf("output missing %q", col)
		}
	}
	if strings.Count(text, "\n") < 6 {
		t.Errorf("output too short:\n%s", text)
	}
}

// TestRunListsFailedChecks: Run reports every failed check of every
// experiment it ran, and refuses an experiment that states none.
func TestRunListsFailedChecks(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	registry = []Experiment{
		{Name: "a", run: func(x *exp) error {
			x.check("holds", true, "fine")
			x.check("broken", false, "got %d", 3)
			return nil
		}},
		{Name: "b", run: func(x *exp) error {
			x.check("also-broken", false, "got %d", 4)
			x.checkTime("timed", false, "not judged off the recorded configuration")
			return nil
		}},
		{Name: "silent", run: func(x *exp) error { return nil }},
	}
	var out strings.Builder
	err := Run("all", Config{Scale: 0.5, W: &out})
	if err == nil || !strings.Contains(err.Error(), "silent: states no shape check") {
		t.Fatalf("Run = %v, want the experiment without checks refused", err)
	}
	for _, line := range []string{"check ok   holds: fine", "check FAIL broken: got 3", "check FAIL also-broken: got 4", "check skip timed:"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}

	registry = registry[:2]
	err = Run("all", Config{Scale: 0.5, W: io.Discard})
	if err == nil {
		t.Fatal("Run passed with failed checks")
	}
	for _, want := range []string{"2 shape checks failed", "a broken: got 3", "b also-broken: got 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	var out strings.Builder
	tb := newTable("a", "bbbb", "ms", "x")
	tb.add("xxxxxx", 7, 1500*time.Microsecond, speedup(2.5))
	tb.flush(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator not aligned with header: %q vs %q", lines[0], lines[1])
	}
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "xxxxxx 7 1.5 2.5x" {
		t.Errorf("row = %q", got)
	}
	if got := tb.col("ms"); got[0] != float64(1500*time.Microsecond) {
		t.Errorf("col(ms) = %v", got)
	}
}
