package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/obs"
)

// fastPolicy is a retry policy tuned for test latency: tiny backoffs, a
// low speculation threshold, and the default attempt budget.
func fastPolicy() fault.RetryPolicy {
	p := fault.DefaultRetryPolicy()
	p.BaseBackoff = 100 * time.Microsecond
	p.MaxBackoff = time.Millisecond
	p.SpeculativeMin = 5 * time.Millisecond
	return p
}

// identityMap writes every input record straight to the output.
func identityMap(ctx *TaskContext, split *Split) error {
	for _, r := range split.Records() {
		ctx.Write(r)
	}
	return nil
}

// identityJob runs m (identityMap, or a test's wrapper of it) from "in"
// to "out".
func identityJob(name string, m MapFunc) *Job {
	return closureJob(Job{Name: name, Input: []string{"in"}, Output: "out"}, KindFuncs{Map: m})
}

// TestDeadlineCancellation: an attempt that outlives the per-task
// deadline is abandoned and retried; a later, faster attempt wins and
// the deadline counter records the abandonment.
func TestDeadlineCancellation(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b", "c"})
	pol := fastPolicy()
	pol.Speculation = false
	pol.TaskDeadline = 20 * time.Millisecond
	c.SetRetryPolicy(pol)

	var calls int64
	job := identityJob("deadline", func(ctx *TaskContext, split *Split) error {
		if atomic.AddInt64(&calls, 1) == 1 {
			time.Sleep(200 * time.Millisecond) // first attempt blows the deadline
		}
		return identityMap(ctx, split)
	})
	rep, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters[CounterDeadlineExceeded]; got == 0 {
		t.Error("deadline counter not incremented")
	}
	if got := rep.Counters[CounterRetryMap]; got == 0 {
		t.Error("deadline abandonment must count as a map retry")
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 3 {
		t.Fatalf("output = %d records, want 3 (abandoned attempt must not publish)", len(out))
	}
}

// TestSpeculativeDuplicateSuppression: a straggling primary attempt gets
// a speculative duplicate; the duplicate wins, the straggler's late
// result is suppressed, and the output has no duplicates.
func TestSpeculativeDuplicateSuppression(t *testing.T) {
	c := newTestCluster(t, 16, 4)
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	pol := fastPolicy()
	pol.SpeculativeFactor = 2
	c.SetRetryPolicy(pol)

	var straggled int64
	job := identityJob("straggler", func(ctx *TaskContext, split *Split) error {
		// The primary attempt of exactly one task straggles; its
		// speculative duplicate (attempt in the disjoint high range)
		// returns promptly.
		if ctx.Split().Blocks[0].ID == 1 && !ctx.Speculative() && ctx.Attempt() == 0 {
			atomic.AddInt64(&straggled, 1)
			time.Sleep(150 * time.Millisecond)
		}
		return identityMap(ctx, split)
	})
	rep, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&straggled) == 0 {
		t.Fatal("test straggler never ran")
	}
	if rep.Counters[CounterSpecLaunched] == 0 {
		t.Error("no speculative attempt launched against the straggler")
	}
	if rep.Counters[CounterSpecWon] == 0 {
		t.Error("speculative duplicate should have won the straggling task")
	}
	if rep.Counters[CounterSpecSuppressed] == 0 {
		t.Error("the losing attempt's output should be counted as suppressed")
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != len(recs) {
		t.Fatalf("output = %d records, want %d (no loss, no duplication)", len(out), len(recs))
	}
	sort.Strings(out)
	for i, r := range out {
		if r != fmt.Sprintf("%012d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	// The suppressed attempt must appear in the trace as a duplicate, and
	// each launched duplicate leaves exactly one attempt span beside the
	// tasks' own.
	dups, attempts, specSpans := 0, 0, 0
	for _, s := range rep.Trace.Spans() {
		if s.Outcome == obs.OutcomeDuplicate {
			dups++
		}
		if s.IsTaskAttempt() {
			attempts++
			if s.Speculative {
				specSpans++
			}
		}
	}
	if dups == 0 {
		t.Error("no span finished with the duplicate outcome")
	}
	spec := int(rep.Counters[CounterSpecLaunched])
	if specSpans != spec || attempts != rep.MapTasks+spec {
		t.Errorf("%d attempt spans, %d speculative; want %d tasks + %d speculative", attempts, specSpans, rep.MapTasks, spec)
	}
}

// TestCommitRetries: injected transient commit failures are retried
// under the policy, the output is written exactly once, and every commit
// span is finished (the pre-refactor leak).
func TestCommitRetries(t *testing.T) {
	// Find a seed whose commit-phase draw fails attempt 0 but not 1.
	seed := int64(-1)
	for s := int64(0); s < 10_000; s++ {
		if fault.Uniform(s, fault.PhaseCommit, 0, 0) < 0.6 && fault.Uniform(s, fault.PhaseCommit, 0, 1) >= 0.6 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable seed found")
	}
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b"})
	c.SetRetryPolicy(fastPolicy())
	// ReduceFailRate drives commit injection; the job has no reduce phase,
	// so only the commit step draws from it.
	c.SetFault(fault.Plan{Seed: seed, ReduceFailRate: 0.6})

	rep, err := c.Run(identityJob("commit-retry", identityMap))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters[CounterRetryCommit]; got != 1 {
		t.Errorf("commit retries = %d, want 1", got)
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 2 {
		t.Fatalf("output = %d records, want 2", len(out))
	}
	commits := 0
	for _, s := range rep.Trace.Spans() {
		if s.Phase == obs.PhaseCommit && s.Name == "commit" {
			commits++
			if s.Outcome == "" {
				t.Error("unfinished commit span")
			}
		}
	}
	if commits != 2 {
		t.Errorf("commit spans = %d, want 2 (failed attempt + winner)", commits)
	}
}

// slowBackoffPolicy backs off for seconds (jitter keeps it >= 2.5s), so a
// test can tell a backoff that wakes on cancellation from one slept out.
func slowBackoffPolicy() fault.RetryPolicy {
	p := fault.DefaultRetryPolicy()
	p.BaseBackoff = 5 * time.Second
	p.MaxBackoff = 5 * time.Second
	return p
}

// TestCommitBackoffHonoursCancel: a job cancelled while its commit step
// backs off after a transient failure must return at once, not after the
// backoff — the commit step's wait is the scheduler's timer, not a sleep.
func TestCommitBackoffHonoursCancel(t *testing.T) {
	seed := int64(-1)
	for s := int64(0); s < 10_000; s++ {
		if fault.Uniform(s, fault.PhaseCommit, 0, 0) < 0.6 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable seed found")
	}
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b"})
	c.SetRetryPolicy(slowBackoffPolicy())
	c.SetFault(fault.Plan{Seed: seed, ReduceFailRate: 0.6}) // drives commit injection only: the job has no reduce

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunCtx(ctx, identityJob("commit-cancel", identityMap))
		done <- err
	}()
	// The injector logs the commit attempt's drawn failure; the backoff
	// follows it.
	for len(c.Injector().Events()) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("RunCtx = %v, want the injected commit failure", err)
		}
		if waited := time.Since(cancelled); waited > 500*time.Millisecond {
			t.Fatalf("RunCtx returned %v after cancel; the commit backoff was slept out", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx never returned")
	}
}

// TestReissueBackoffHonoursClose is the shard re-issue analogue: a
// re-issue backing off after a failed attempt must stop when its run
// closes. The pool is one scripted worker driven through the master's
// RPC handlers: it takes the re-issued map and reports a transient
// failure.
func TestReissueBackoffHonoursClose(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b"})
	c.SetRetryPolicy(slowBackoffPolicy())
	m, err := c.StartMaster(MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	ctx := context.Background()
	var reg RegisterReply
	if err := m.Register(ctx, &RegisterArgs{}, &reg); err != nil {
		t.Fatal(err)
	}

	job := identityJob("reissue-close", identityMap)
	rj := &runningJob{job: job, kf: KindFuncs{Map: identityMap}, reg: obs.NewRegistry(), nshards: 1}
	splits, err := c.MakeSplits(job.Input)
	if err != nil {
		t.Fatal(err)
	}
	r := startRemote(jobContext(), m, rj, splits)
	done := make(chan error, 1)
	go func() { done <- r.ensureShards(0) }()

	var task TaskAssignment
	for task.Phase != TaskMap {
		if err := m.GetTask(ctx, &GetTaskArgs{WorkerID: reg.WorkerID}, &task); err != nil {
			t.Fatal(err)
		}
	}
	if task.Attempt <= reissueAttempt {
		t.Fatalf("re-issue dispatched as attempt %d, want the %d+ range", task.Attempt, reissueAttempt)
	}
	failed := TaskDoneArgs{WorkerID: reg.WorkerID, DispatchID: task.DispatchID, Err: "scripted failure", Transient: true}
	if err := m.TaskDone(ctx, &failed, &TaskDoneReply{}); err != nil {
		t.Fatal(err)
	}
	r.close()
	closed := time.Now()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ensureShards = nil, want the failed attempt's error")
		}
		if waited := time.Since(closed); waited > 500*time.Millisecond {
			t.Fatalf("re-issue returned %v after close; its backoff was slept out", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-issue never returned")
	}
}

// TestChecksumFailureFailsJob: a genuinely corrupted block (checksum
// mismatch on every re-read) exhausts the retry budget and fails the job
// with the typed dfs error.
func TestChecksumFailureFailsJob(t *testing.T) {
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b", "c"})
	if err := c.FS().CorruptBlock("in", 0); err != nil {
		t.Fatal(err)
	}
	pol := fastPolicy()
	pol.Speculation = false
	c.SetRetryPolicy(pol)

	_, err := c.Run(identityJob("corrupt", identityMap))
	if err == nil {
		t.Fatal("job over a corrupted block must fail")
	}
	if !errors.Is(err, dfs.ErrChecksum) {
		t.Fatalf("error = %v, want dfs.ErrChecksum", err)
	}
}

// TestInjectedCorruptReadHeals: an injector-produced checksum mismatch is
// transient — the retry draws a fresh coordinate and reads clean — so the
// job succeeds and records the checksum failure.
func TestInjectedCorruptReadHeals(t *testing.T) {
	// Find a seed where map task 0 attempt 0 draws corrupt and attempt 1
	// draws nothing.
	seed := int64(-1)
	for s := int64(0); s < 10_000; s++ {
		if fault.Uniform(s, fault.PhaseMap, 0, 0) < 0.5 && fault.Uniform(s, fault.PhaseMap, 0, 1) >= 0.5 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable seed found")
	}
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a", "b", "c"})
	c.SetRetryPolicy(fastPolicy())
	c.SetFault(fault.Plan{Seed: seed, CorruptBlockRate: 0.5})

	rep, err := c.Run(identityJob("healing-read", identityMap))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterChecksumFailures] == 0 {
		t.Error("checksum failure counter not incremented")
	}
	if rep.Counters[CounterRetryMap] == 0 {
		t.Error("injected corrupt read must be retried")
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 3 {
		t.Fatalf("output = %d records, want 3", len(out))
	}
}

// TestPermanentFailureNotRetried: a permanent injected failure fails the
// job without burning the retry budget.
func TestPermanentFailureNotRetried(t *testing.T) {
	// Find a seed where map task 0 attempt 0 draws the permanent band.
	seed := int64(-1)
	for s := int64(0); s < 10_000; s++ {
		if fault.Uniform(s, fault.PhaseMap, 0, 0) < 0.9 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable seed found")
	}
	c := newTestCluster(t, 1<<20, 4)
	c.FS().WriteFile("in", []string{"a"})
	pol := fastPolicy()
	pol.Speculation = false
	c.SetRetryPolicy(pol)
	c.SetFault(fault.Plan{Seed: seed, PermanentFailRate: 0.9})

	rep, err := c.Run(identityJob("permanent", identityMap))
	if err == nil {
		t.Fatal("permanent failure must fail the job")
	}
	if rep != nil {
		t.Fatal("failed run must not return a report")
	}
	if errors.Is(err, fault.ErrInjected) {
		var ie *fault.InjectedError
		if !errors.As(err, &ie) || !ie.Permanent {
			t.Fatalf("error detail = %v", err)
		}
	} else {
		t.Fatalf("error = %v, want injected", err)
	}
}

// TestAllSpansFinishedUnderChaos: after a chaotic but successful run,
// every span in the trace carries an outcome — no span leaks open on any
// retry or failure path.
func TestAllSpansFinishedUnderChaos(t *testing.T) {
	c := newTestCluster(t, 64, 4)
	var recs []string
	for i := 0; i < 60; i++ {
		recs = append(recs, fmt.Sprintf("k%d\t%012d", i%7, i))
	}
	c.FS().WriteFile("in", recs)
	c.SetRetryPolicy(fastPolicy())
	c.SetFault(fault.Plan{Seed: 11, MapFailRate: 0.3, ReduceFailRate: 0.2, StragglerRate: 0.1, CorruptBlockRate: 0.1})

	rep, err := c.Run(closureJob(Job{
		Name:        "chaotic",
		Input:       []string{"in"},
		NumReducers: 3,
		Output:      "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Emit(r[:2], r)
			}
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values []string) error {
			ctx.Write(fmt.Sprintf("%s=%d", key, len(values)))
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Trace.Spans() {
		if s.DurUS == 0 {
			t.Errorf("span %s (phase %s attempt %d) never ended", s.Name, s.Phase, s.Attempt)
		}
		if (s.IsTaskAttempt() || s.Name == "commit") && s.Outcome == "" {
			t.Errorf("span %s (phase %s attempt %d) has no outcome", s.Name, s.Phase, s.Attempt)
		}
	}
	var faults int64
	for _, name := range []string{
		CounterRetryMap, CounterRetryReduce, CounterRetryCommit,
		CounterStragglersInjected, CounterChecksumFailures,
	} {
		faults += rep.Counters[name]
	}
	if faults == 0 {
		t.Error("chaos plan injected nothing; raise the rates or change the seed")
	}
}

// TestRetryPolicyRoundTrip pins the accessor pairs: the retry policy
// reads back, SetFault installs a plan on the injector and the zero plan
// clears it.
func TestRetryPolicyRoundTrip(t *testing.T) {
	c := newTestCluster(t, 1<<20, 2)
	pol := fault.RetryPolicy{MaxAttempts: 7, BaseBackoff: time.Millisecond}
	c.SetRetryPolicy(pol)
	if got := c.RetryPolicy(); got != pol {
		t.Errorf("RetryPolicy = %+v, want %+v", got, pol)
	}
	plan := fault.Plan{Seed: 3, MapFailRate: 1}
	c.SetFault(plan)
	in := c.Injector()
	if in == nil || in.Plan() != plan {
		t.Fatalf("SetFault(%+v) installed %+v", plan, in.Plan())
	}
	if d := in.Decide(fault.PhaseMap, 0, 0); d.Kind != fault.KindTransient || len(in.Events()) != 1 {
		t.Fatalf("installed plan decided %+v with events %v, want one injected transient", d, in.Events())
	}
	c.SetFault(fault.Plan{})
	if c.Injector() != nil {
		t.Error("SetFault(fault.Plan{}) must clear the injector")
	}
}
