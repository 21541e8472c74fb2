package bench

import (
	"io"
	"os"
	"strings"
	"testing"
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
		if e.Title == "" || e.Run == nil {
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

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("fig99", Config{W: io.Discard}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestTinyExperimentRuns smoke-runs a small experiment end to end and
// checks the table output shape.
func TestTinyExperimentRuns(t *testing.T) {
	var out strings.Builder
	cfg := Config{Scale: 0.02, Workers: 4, BlockSize: 32 << 10, Seed: 1, W: &out}
	if err := Run("fig24", cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, col := range []string{"points", "single(ms)", "shadoop-sim(ms)", "sh-speedup"} {
		if !strings.Contains(text, col) {
			t.Errorf("output missing column %q", col)
		}
	}
	if strings.Count(text, "\n") < 6 {
		t.Errorf("output too short:\n%s", text)
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	var out strings.Builder
	tb := newTable(&out, "a", "bbbb")
	tb.add("xxxxxx", "y")
	tb.flush()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator not aligned with header: %q vs %q", lines[0], lines[1])
	}
}
