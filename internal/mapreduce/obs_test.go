package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/sindex"
)

// TestRetryDoesNotDoubleCountCounters is the regression test for the
// retry inflation bug: failed attempts used to increment map.records.in
// (and re-run the combiner's counters), so injected failures inflated the
// job counters. Only the successful attempt may count.
func TestRetryDoesNotDoubleCountCounters(t *testing.T) {
	const records = 30
	c := newTestCluster(t, 16, 4)
	var recs []string
	for i := 0; i < records; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	// Hash-seeded injection gives every (task, attempt) a fixed fate, so
	// the retry pattern is identical under any scheduling interleaving
	// (the legacy global-counter mode was order-dependent and could
	// exhaust a task's budget under concurrent-job scheduling). Seed 3
	// yields 12 retries across these 30 tasks with none exhausting.
	c.SetFault(fault.Plan{MapFailRate: 0.3, Seed: 3})
	rep, err := c.Run(closureJob(Job{
		Name:   "flaky-counters",
		Input:  []string{"in"},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Inc("user.mapped", 1)
				ctx.Emit("k", r)
			}
			return nil
		},
		Combine: func(ctx *TaskContext, key string, values []string) error {
			ctx.Inc("user.combined", int64(len(values)))
			ctx.Emit(key, strconv.Itoa(len(values)))
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values []string) error {
			for range values {
				ctx.Write(key)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterTaskRetries] == 0 {
		t.Fatal("expected injected retries; the regression test exercised nothing")
	}
	if got := rep.Counters[CounterMapRecordsIn]; got != records {
		t.Errorf("map.records.in = %d, want %d (retries must not double-count)", got, records)
	}
	if got := rep.Counters["user.mapped"]; got != records {
		t.Errorf("user.mapped = %d, want %d", got, records)
	}
	if got := rep.Counters["user.combined"]; got != records {
		t.Errorf("user.combined = %d, want %d (combiner re-runs must not double-count)", got, records)
	}
}

// TestTraceSpansPerPhase runs a full map+reduce+commit job and checks its
// trace is one tree: the job span, each phase's span exactly once under
// it, and under the map and reduce phases one slot.wait per task and one
// attempt span per task (fault-free). The Chrome trace_event export
// validates and the JSONL round-trips.
func TestTraceSpansPerPhase(t *testing.T) {
	c := newTestCluster(t, 256, 4)
	writeText(t, c)
	rep, err := c.Run(wordCountJob("out"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Metrics == nil {
		t.Fatal("report is missing trace/metrics")
	}
	snap := rep.Trace.Snapshot()

	// Chrome trace export validates structurally.
	var chrome bytes.Buffer
	if err := snap.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatal(err)
	}

	// JSONL round-trip preserves span count and links.
	var jsonl bytes.Buffer
	if err := snap.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseJSONL(jsonl.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(snap.Spans) {
		t.Fatalf("round-trip span count = %d, want %d", len(spans), len(snap.Spans))
	}

	byID := map[int64]obs.Span{}
	names := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
		if s.DurUS == 0 {
			t.Errorf("span %s never ended", s.Name)
		}
	}
	for _, name := range []string{"job", "phase.map", "phase.shuffle", "phase.reduce", "phase.commit"} {
		if names[name] != 1 {
			t.Errorf("%s spans = %d, want exactly 1 (have %v)", name, names[name], names)
		}
	}
	if names["phase.filter"] != 0 {
		t.Errorf("a job without a filter opened phase.filter")
	}
	parentName := func(s obs.Span) string { return byID[s.Parent].Name }
	attempts := map[string]int{}
	for _, s := range spans {
		switch {
		case s.Name == "job":
			if s.Phase != obs.PhaseJob || s.Outcome != obs.OutcomeOK {
				t.Errorf("job span = %+v", s)
			}
		case strings.HasPrefix(s.Name, "phase."):
			if s.Phase == "" || s.Task != -1 || s.IsTaskAttempt() || parentName(s) != "job" {
				t.Errorf("phase span %s: phase %q task %d under %q", s.Name, s.Phase, s.Task, parentName(s))
			}
		case s.Name == "slot.wait":
			if s.Phase != "" || s.IsTaskAttempt() || !strings.HasPrefix(parentName(s), "phase.") {
				t.Errorf("slot.wait passes for a task or sits under %q", parentName(s))
			}
		case s.IsTaskAttempt():
			attempts[s.Phase]++
			if want := "phase." + s.Phase; parentName(s) != want || s.Outcome != obs.OutcomeOK {
				t.Errorf("attempt %s under %q outcome %q, want under %s and ok", s.Name, parentName(s), s.Outcome, want)
			}
		}
	}
	if attempts[obs.PhaseMap] != rep.MapTasks || attempts[obs.PhaseReduce] != rep.ReduceTasks {
		t.Errorf("attempts = %v, want %d map and %d reduce", attempts, rep.MapTasks, rep.ReduceTasks)
	}
	if names["slot.wait"] != rep.MapTasks+rep.ReduceTasks {
		t.Errorf("slot.wait spans = %d, want one per task (%d)", names["slot.wait"], rep.MapTasks+rep.ReduceTasks)
	}

	// The per-phase histograms exist in the snapshot.
	for _, h := range []string{HistMapTaskDurationUS, HistReduceTaskDurationUS} {
		if rep.Metrics.Histograms[h].Count == 0 {
			t.Errorf("histogram %s is empty", h)
		}
	}
}

// TestTraceCapRule: a batch job keeps every span of its own trace, so one
// with more attempts than MaxReqSpans is complete; the same job under a
// request trace hits the cap, and what the request keeps is still a tree.
// The report does not read the trace: it holds one row per task past the
// cap, and its summary lists that job's tasks only, not those of a job
// that ran before it under the same request.
func TestTraceCapRule(t *testing.T) {
	const records = obs.MaxReqSpans + 40
	c := newTestCluster(t, 16, 4)
	var recs []string
	for i := 0; i < records; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	c.SetRetryPolicy(fastPolicy())
	c.SetFault(fault.Plan{MapFailRate: 0.1, Seed: 5})

	rep, err := c.Run(identityJob("many-tasks", identityMap))
	if err != nil {
		t.Fatal(err)
	}
	// Every attempt leaves one span: each task's final primary attempt,
	// each retried one, and each speculative duplicate a loaded machine
	// launched (whatever its outcome).
	snap := rep.Trace.Snapshot()
	attempts, specSpans := 0, 0
	for i := range snap.Spans {
		if snap.Spans[i].IsTaskAttempt() {
			attempts++
			if snap.Spans[i].Speculative {
				specSpans++
			}
		}
	}
	retries := int(rep.Counters[CounterTaskRetries])
	spec := int(rep.Counters[CounterSpecLaunched])
	if rep.MapTasks <= obs.MaxReqSpans || retries == 0 {
		t.Fatalf("setup: %d tasks, %d retries; want > %d tasks and some retries", rep.MapTasks, retries, obs.MaxReqSpans)
	}
	if attempts != rep.MapTasks+retries+spec || specSpans != spec || snap.Dropped != 0 {
		t.Errorf("batch trace: %d attempts (%d speculative), dropped %d; want %d + %d + %d speculative attempts, none dropped",
			attempts, specSpans, snap.Dropped, rep.MapTasks, retries, spec)
	}

	req := obs.NewTrace("req")
	rctx := obs.ContextWithTrace(context.Background(), req)
	c.FS().WriteFile("few", recs[:3])
	if _, err := c.RunCtx(rctx, closureJob(Job{Name: "reduce-first", Input: []string{"few"}, NumReducers: 2, Output: "first"}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Emit(r, r)
			}
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, _ []string) error {
			ctx.Write(key)
			return nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	rrep, err := c.RunCtx(rctx, identityJob("many-tasks-req", identityMap))
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for i, row := range rrep.Tasks {
		if row.Phase != obs.PhaseMap || row.Task != i || row.RecordsIn != 1 {
			t.Errorf("row %d of the request-traced job: %+v; want map task %d over 1 record", i, row, i)
		}
		written += row.RecordsOut
	}
	if len(rrep.Tasks) != rrep.MapTasks || rrep.MapTasks != records || written != rrep.OutputCount {
		t.Errorf("request-traced job: %d rows writing %d records for %d map tasks writing %d; want %d of each",
			len(rrep.Tasks), written, rrep.MapTasks, rrep.OutputCount, records)
	}
	var sum bytes.Buffer
	rrep.WriteSummary(&sum)
	if strings.Contains(sum.String(), "reduce") || !strings.Contains(sum.String(), "most skewed map partitions") {
		t.Errorf("the request-traced job's summary is not its own:\n%s", sum.String())
	}
	rsnap := req.Snapshot()
	if rsnap.Dropped == 0 || len(rsnap.Spans) != obs.MaxReqSpans {
		t.Errorf("request trace kept %d spans, dropped %d; want the cap %d and some dropped", len(rsnap.Spans), rsnap.Dropped, obs.MaxReqSpans)
	}
	ids := map[int64]bool{}
	for _, s := range rsnap.Spans {
		ids[s.ID] = true
	}
	for _, s := range rsnap.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %q has dangling parent %d", s.Name, s.Parent)
		}
	}
}

// TestRetriedAttemptsAppearInTrace checks that failed attempts leave
// retry-outcome spans behind rather than vanishing.
func TestRetriedAttemptsAppearInTrace(t *testing.T) {
	c := newTestCluster(t, 16, 4)
	var recs []string
	for i := 0; i < 30; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	c.SetFault(fault.Plan{Seed: 3, MapFailRate: 0.3})
	rep, err := c.Run(closureJob(Job{
		Name:   "flaky-trace",
		Input:  []string{"in"},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Write(r)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var retrySpans, okMapSpans int64
	for _, s := range rep.Trace.Spans() {
		if !s.IsTaskAttempt() {
			continue
		}
		switch s.Outcome {
		case obs.OutcomeRetry:
			retrySpans++
		case obs.OutcomeOK:
			okMapSpans++
		}
	}
	if retrySpans == 0 || len(c.Injector().Events()) == 0 {
		t.Error("no attempt was injected; the trace shows no retry")
	}
	if retrySpans != rep.Counters[CounterTaskRetries] {
		t.Errorf("retry spans = %d, counter = %d", retrySpans, rep.Counters[CounterTaskRetries])
	}
	if okMapSpans != int64(rep.MapTasks) {
		t.Errorf("ok map spans = %d, want %d", okMapSpans, rep.MapTasks)
	}
}

func TestSimulatedParallelEdgeCases(t *testing.T) {
	rows := func(phase string, durs ...time.Duration) []TaskRow {
		var out []TaskRow
		for i, d := range durs {
			out = append(out, TaskRow{Phase: phase, Task: i, Dur: d})
		}
		return out
	}
	// workers=0 must clamp to 1: the makespan is the full work sum.
	r := &Report{
		Tasks: append(rows(obs.PhaseMap, 4*time.Second, 3*time.Second, 3*time.Second),
			rows(obs.PhaseReduce, 2*time.Second)...),
		ShuffleTime: time.Second,
		CommitTime:  time.Second,
	}
	if got := r.SimulatedParallel(0); got != 14*time.Second {
		t.Errorf("workers=0 makespan = %v, want 14s", got)
	}
	// One dominating task: the phase cannot beat the longest task no
	// matter how many workers.
	if got := r.SimulatedParallel(1000); got != 4*time.Second+time.Second+2*time.Second+time.Second {
		t.Errorf("dominating-task makespan = %v", got)
	}
	// Empty reduce phase contributes nothing.
	r2 := &Report{Tasks: rows(obs.PhaseMap, 2*time.Second, 2*time.Second, 2*time.Second)}
	if got := r2.SimulatedParallel(3); got != 2*time.Second {
		t.Errorf("empty-phases makespan = %v, want 2s", got)
	}
	// Zero-everything report must not panic or go negative.
	if got := (&Report{}).SimulatedParallel(5); got != 0 {
		t.Errorf("zero report makespan = %v", got)
	}
}

// TestMakeSplitsUsesMasterIndexMBR checks that default splits of an
// indexed file carry the real partition boundaries from the file's global
// index (not the world rectangle), so a Filter on the default split path
// can prune.
func TestMakeSplitsUsesMasterIndexMBR(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	gi := &sindex.GlobalIndex{
		Technique: sindex.Grid,
		Space:     geom.NewRect(0, 0, 10, 10),
		Cells: []sindex.Cell{
			{ID: 0, Boundary: geom.NewRect(0, 0, 5, 10), Content: geom.NewRect(1, 1, 4, 9)},
			{ID: 1, Boundary: geom.NewRect(5, 0, 10, 10), Content: geom.NewRect(6, 1, 9, 9)},
		},
	}
	w, err := c.FS().Create("indexed")
	if err != nil {
		t.Fatal(err)
	}
	w.SetPartition("c0")
	w.WriteRecord("left")
	w.SetPartition("c1")
	w.WriteRecord("right")
	w.SetIndex(gi)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	splits, err := c.MakeSplits([]string{"indexed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %d, want 2", len(splits))
	}
	world := geom.WorldRect()
	for _, s := range splits {
		cell, ok := gi.CellByKey(s.Partition)
		if !ok {
			t.Fatalf("split has unknown partition %q", s.Partition)
		}
		if s.MBR == world {
			t.Errorf("split %s MBR is the world rect; index boundary was discarded", s.Partition)
		}
		if s.MBR != cell.Boundary {
			t.Errorf("split %s MBR = %+v, want cell boundary %+v", s.Partition, s.MBR, cell.Boundary)
		}
		if s.ContentMBR != cell.Content {
			t.Errorf("split %s ContentMBR = %+v, want cell content %+v", s.Partition, s.ContentMBR, cell.Content)
		}
	}

	// A Filter on the default split path (Input, no explicit Splits) must
	// see the real MBRs and be able to prune.
	query := geom.NewRect(6, 4, 7, 6) // inside cell c1 only
	rep, err := c.Run(closureJob(Job{
		Name:  "filtered-indexed",
		Input: []string{"indexed"},
		Filter: func(splits []*Split) []*Split {
			var keep []*Split
			for _, s := range splits {
				if s.MBR.Intersects(query) {
					keep = append(keep, s)
				}
			}
			return keep
		},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Write(r)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Splits != 1 || rep.SplitsTotal != 2 {
		t.Errorf("filter pruned %d/%d, want 1/2", rep.Splits, rep.SplitsTotal)
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 1 || out[0] != "right" {
		t.Errorf("out = %v, want [right]", out)
	}
}

// TestWriteSummary smoke-tests the human-readable summary rendering.
func TestWriteSummary(t *testing.T) {
	c := newTestCluster(t, 256, 4)
	writeText(t, c)
	rep, err := c.Run(wordCountJob("out"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"phase", "map", "shuffle", "reduce", "commit", "slowest tasks", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The trace holds phase and slot.wait spans beside the attempts; only
	// attempts may be listed as tasks.
	names := rep.Trace.Snapshot().SpanNames()
	if names["phase.map"] == 0 || names["slot.wait"] == 0 {
		t.Fatalf("trace lacks phase/slot.wait spans: %v", names)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "phase.") || strings.Contains(line, "slot.wait") {
			t.Errorf("summary lists a non-attempt span as a task: %q", line)
		}
	}
}

// TestGaugeFilterPruneRatio checks the prune-ratio gauge the evaluation
// figures cite.
func TestGaugeFilterPruneRatio(t *testing.T) {
	c := newTestCluster(t, 16, 2)
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	rep, err := c.Run(closureJob(Job{
		Name:   "pruned",
		Input:  []string{"in"},
		Filter: func(splits []*Split) []*Split { return splits[:1] },
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error { return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}
	ratio, ok := rep.Metrics.Gauges[GaugeFilterPruneRatio]
	if !ok {
		t.Fatal("prune ratio gauge missing")
	}
	want := float64(rep.SplitsTotal-rep.Splits) / float64(rep.SplitsTotal)
	if ratio != want {
		t.Errorf("prune ratio = %v, want %v", ratio, want)
	}
}
