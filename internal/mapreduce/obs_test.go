package mapreduce

import (
	"bytes"
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

// TestTraceSpansPerPhase runs a full map+reduce+commit job and checks the
// exported trace: the Chrome trace_event JSON is structurally valid, the
// JSONL round-trips, and there is at least one span per map task, the
// shuffle, each reduce partition and the commit, all parented on the job
// root span.
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

	// Chrome trace export validates structurally.
	var chrome bytes.Buffer
	if err := rep.Trace.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatal(err)
	}

	// JSONL round-trip preserves span count and links.
	var jsonl bytes.Buffer
	if err := rep.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseJSONL(jsonl.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(rep.Trace.Spans()) {
		t.Fatalf("round-trip span count = %d, want %d", len(spans), len(rep.Trace.Spans()))
	}

	byPhase := map[string]int{}
	var rootID int64
	for _, s := range spans {
		byPhase[s.Phase]++
		if s.Phase == obs.PhaseJob {
			rootID = s.ID
		}
	}
	if byPhase[obs.PhaseJob] != 1 {
		t.Fatalf("job spans = %d, want 1", byPhase[obs.PhaseJob])
	}
	if byPhase[obs.PhaseMap] != rep.MapTasks {
		t.Errorf("map spans = %d, want %d", byPhase[obs.PhaseMap], rep.MapTasks)
	}
	if byPhase[obs.PhaseShuffle] != 1 {
		t.Errorf("shuffle spans = %d, want 1", byPhase[obs.PhaseShuffle])
	}
	if byPhase[obs.PhaseReduce] != rep.ReduceTasks {
		t.Errorf("reduce spans = %d, want %d", byPhase[obs.PhaseReduce], rep.ReduceTasks)
	}
	if byPhase[obs.PhaseCommit] != 1 {
		t.Errorf("commit spans = %d, want 1", byPhase[obs.PhaseCommit])
	}
	for _, s := range spans {
		if s.Phase == obs.PhaseJob {
			continue
		}
		if s.Parent != rootID {
			t.Errorf("span %s (%s) parent = %d, want root %d", s.Name, s.Phase, s.Parent, rootID)
		}
		if s.Outcome != obs.OutcomeOK {
			t.Errorf("span %s outcome = %q", s.Name, s.Outcome)
		}
	}

	// The per-phase histograms exist in the snapshot.
	for _, h := range []string{HistMapTaskDurationUS, HistReduceTaskDurationUS} {
		if rep.Metrics.Histograms[h].Count == 0 {
			t.Errorf("histogram %s is empty", h)
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
	c.SetFault(fault.Plan{FailEveryKth: 3})
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
		if s.Phase != obs.PhaseMap {
			continue
		}
		switch s.Outcome {
		case obs.OutcomeRetry:
			retrySpans++
		case obs.OutcomeOK:
			okMapSpans++
		}
	}
	if retrySpans != rep.Counters[CounterTaskRetries] {
		t.Errorf("retry spans = %d, counter = %d", retrySpans, rep.Counters[CounterTaskRetries])
	}
	if okMapSpans != int64(rep.MapTasks) {
		t.Errorf("ok map spans = %d, want %d", okMapSpans, rep.MapTasks)
	}
}

func TestSimulatedParallelEdgeCases(t *testing.T) {
	// workers=0 must clamp to 1: the makespan is the full work sum.
	r := &Report{
		MapWorkSum: 10 * time.Second, MapTaskMax: 4 * time.Second,
		ShuffleTime:   time.Second,
		ReduceWorkSum: 2 * time.Second, ReduceTaskMax: 2 * time.Second,
		CommitTime: time.Second,
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
	r2 := &Report{MapWorkSum: 6 * time.Second, MapTaskMax: 2 * time.Second}
	if got := r2.SimulatedParallel(3); got != 2*time.Second {
		t.Errorf("empty-phases makespan = %v, want 2s", got)
	}
	// Zero-everything report must not panic or go negative.
	if got := (&Report{}).SimulatedParallel(5); got != 0 {
		t.Errorf("zero report makespan = %v", got)
	}
}

// TestMakeSplitsUsesMasterIndexMBR checks that default splits of an
// indexed file carry the real partition boundaries from the master index
// (not the world rectangle), so a Filter on the default split path can
// prune.
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
	w.SetMaster(gi.Encode())
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
			t.Errorf("split %s MBR is the world rect; master index boundary was discarded", s.Partition)
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
