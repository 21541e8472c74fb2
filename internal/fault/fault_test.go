package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestDecideDeterministic pins the core determinism contract: two
// injectors built from the same plan return identical decisions for the
// same coordinates, in any interleaving.
func TestDecideDeterministic(t *testing.T) {
	plan := Plan{
		Seed:              42,
		MapFailRate:       0.2,
		ReduceFailRate:    0.15,
		PermanentFailRate: 0.01,
		StragglerRate:     0.1,
		StragglerSlowdown: 3,
		CorruptBlockRate:  0.05,
	}
	a, b := NewInjector(plan), NewInjector(plan)
	var first []Decision
	for task := 0; task < 50; task++ {
		for attempt := 0; attempt < 4; attempt++ {
			first = append(first, a.Decide(PhaseMap, task, attempt))
			first = append(first, a.Decide(PhaseReduce, task, attempt))
		}
	}
	// Replay in reverse order on the second injector.
	var second []Decision
	for task := 49; task >= 0; task-- {
		for attempt := 3; attempt >= 0; attempt-- {
			second = append(second, b.Decide(PhaseMap, task, attempt))
			second = append(second, b.Decide(PhaseReduce, task, attempt))
		}
	}
	byCoord := func(ds []Decision, reversed bool) map[string]Decision {
		m := make(map[string]Decision)
		i := 0
		tasks := make([]int, 50)
		for k := range tasks {
			tasks[k] = k
		}
		attempts := []int{0, 1, 2, 3}
		if reversed {
			for k := range tasks {
				tasks[k] = 49 - k
			}
			attempts = []int{3, 2, 1, 0}
		}
		for _, task := range tasks {
			for _, attempt := range attempts {
				m[fmt.Sprintf("m/%d/%d", task, attempt)] = ds[i]
				m[fmt.Sprintf("r/%d/%d", task, attempt)] = ds[i+1]
				i += 2
			}
		}
		return m
	}
	ma, mb := byCoord(first, false), byCoord(second, true)
	for k, da := range ma {
		if db := mb[k]; da != db {
			t.Fatalf("decision %s differs: %v vs %v", k, da, db)
		}
	}
	// The plan actually injected something at these rates.
	var injected int
	for _, d := range first {
		if d.Kind != KindNone {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no injections at 35%+ total rates over 400 draws")
	}
}

// TestDecideSeedSensitivity checks that changing the seed changes the set
// of injected coordinates.
func TestDecideSeedSensitivity(t *testing.T) {
	mk := func(seed int64) string {
		in := NewInjector(Plan{Seed: seed, MapFailRate: 0.3})
		var sb strings.Builder
		for task := 0; task < 100; task++ {
			if in.Decide(PhaseMap, task, 0).Kind != KindNone {
				fmt.Fprintf(&sb, "%d,", task)
			}
		}
		return sb.String()
	}
	if mk(1) == mk(2) {
		t.Error("seeds 1 and 2 injected identical coordinate sets")
	}
	if mk(1) != mk(1) {
		t.Error("same seed produced different coordinate sets")
	}
}

// TestUniformDistribution sanity-checks the hash-derived uniform draw:
// mean near 0.5 and observed rates near the configured rates.
func TestUniformDistribution(t *testing.T) {
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		u := Uniform(7, PhaseMap, i, 0)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("uniform mean = %.4f, want ~0.5", mean)
	}
	in := NewInjector(Plan{Seed: 7, MapFailRate: 0.25})
	fails := 0
	for i := 0; i < n; i++ {
		if in.Decide(PhaseMap, i, 0).Kind == KindTransient {
			fails++
		}
	}
	if rate := float64(fails) / n; math.Abs(rate-0.25) > 0.02 {
		t.Errorf("observed fail rate = %.4f, want ~0.25", rate)
	}
}

// TestEveryKthMode pins the FailEveryKth semantics: every k-th
// map attempt fails once, counted across the injector's lifetime.
func TestEveryKthMode(t *testing.T) {
	in := NewInjector(Plan{FailEveryKth: 3})
	var kinds []Kind
	for i := 0; i < 9; i++ {
		kinds = append(kinds, in.Decide(PhaseMap, i, 0).Kind)
	}
	for i, k := range kinds {
		want := KindNone
		if (i+1)%3 == 0 {
			want = KindTransient
		}
		if k != want {
			t.Errorf("attempt %d: kind = %v, want %v", i, k, want)
		}
	}
	// Reduce attempts do not consume the counter.
	in2 := NewInjector(Plan{FailEveryKth: 2})
	in2.Decide(PhaseReduce, 0, 0)
	if in2.Decide(PhaseMap, 0, 0).Kind != KindNone {
		t.Error("reduce decide consumed the every-kth counter")
	}
	if in2.Decide(PhaseMap, 1, 0).Kind != KindTransient {
		t.Error("second map attempt should fail with k=2")
	}
}

// TestBackoffDeterministicAndCapped checks the backoff schedule: seeded
// jitter is reproducible, the ramp is exponential, and the cap holds.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		d1 := p.Backoff(99, PhaseMap, 5, attempt)
		d2 := p.Backoff(99, PhaseMap, 5, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		raw := p.BaseBackoff << uint(attempt)
		if raw > p.MaxBackoff {
			raw = p.MaxBackoff
		}
		if d1 < raw/2 || d1 >= raw {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, raw/2, raw)
		}
	}
	if d := p.Backoff(99, PhaseMap, 5, 60); d >= p.MaxBackoff {
		t.Errorf("huge attempt backoff %v not capped below %v", d, p.MaxBackoff)
	}
	// Different tasks jitter differently under the same seed.
	same := true
	for task := 1; task < 10; task++ {
		if p.Backoff(99, PhaseMap, task, 1) != p.Backoff(99, PhaseMap, 0, 1) {
			same = false
		}
	}
	if same {
		t.Error("all tasks produced identical jitter")
	}
	if (RetryPolicy{}).Backoff(1, PhaseMap, 0, 0) != 0 {
		t.Error("zero BaseBackoff must produce zero delay")
	}
}

// TestClassification covers the transient/permanent error taxonomy.
func TestClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("unmarked errors are permanent by default")
	}
	if !IsTransient(Transientf("flaky %d", 7)) {
		t.Error("Transientf must be transient")
	}
	wrapped := fmt.Errorf("task 3: %w", Transient(errors.New("io glitch")))
	if !IsTransient(wrapped) {
		t.Error("transient marker must survive wrapping")
	}
	if !IsTransient(context.DeadlineExceeded) {
		t.Error("deadline exceeded is retryable")
	}
	if !IsTransient(fmt.Errorf("attempt: %w", context.DeadlineExceeded)) {
		t.Error("wrapped deadline exceeded is retryable")
	}
	inj := &InjectedError{Phase: PhaseMap, Task: 1, Attempt: 0}
	if !IsTransient(inj) || !errors.Is(inj, ErrInjected) {
		t.Error("injected transient failure misclassified")
	}
	perm := &InjectedError{Phase: PhaseReduce, Task: 2, Attempt: 1, Permanent: true}
	if IsTransient(perm) || !errors.Is(perm, ErrInjected) {
		t.Error("injected permanent failure misclassified")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil")
	}
}

// TestShouldRetry covers the attempt budget.
func TestShouldRetry(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3}
	terr := Transientf("boom")
	if !p.ShouldRetry(terr, 0) || !p.ShouldRetry(terr, 1) {
		t.Error("attempts 0 and 1 have budget left")
	}
	if p.ShouldRetry(terr, 2) {
		t.Error("attempt 2 is the last of 3")
	}
	if p.ShouldRetry(errors.New("permanent"), 0) {
		t.Error("permanent errors are never retried")
	}
	if (RetryPolicy{}).ShouldRetry(terr, 0) {
		t.Error("MaxAttempts<1 clamps to a single attempt")
	}
}

// TestStragglerThreshold covers the factor and the floor.
func TestStragglerThreshold(t *testing.T) {
	p := RetryPolicy{SpeculativeFactor: 2, SpeculativeMin: 10 * time.Millisecond}
	if got := p.StragglerThreshold(20 * time.Millisecond); got != 40*time.Millisecond {
		t.Errorf("threshold = %v, want 40ms", got)
	}
	if got := p.StragglerThreshold(time.Millisecond); got != 10*time.Millisecond {
		t.Errorf("floored threshold = %v, want 10ms", got)
	}
	if got := (RetryPolicy{SpeculativeMin: time.Millisecond}).StragglerThreshold(time.Millisecond); got != 3*time.Millisecond {
		t.Errorf("default factor threshold = %v, want 3ms", got)
	}
}

// TestEventLogJSONL checks that injections are recorded and export as
// parseable JSONL.
func TestEventLogJSONL(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, MapFailRate: 1})
	in.Decide(PhaseMap, 0, 0)
	in.Decide(PhaseMap, 1, 0)
	events := in.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	var buf bytes.Buffer
	if err := in.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Kind != "transient" || e.Phase != PhaseMap {
			t.Errorf("event = %+v", e)
		}
	}
	// A nil injector is inert.
	var nilIn *Injector
	if d := nilIn.Decide(PhaseMap, 0, 0); d.Kind != KindNone {
		t.Error("nil injector must decide none")
	}
	if nilIn.Events() != nil {
		t.Error("nil injector has no events")
	}
}
