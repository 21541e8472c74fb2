package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/obs"
)

// This file is the task scheduler shared by the map and reduce phases —
// and the one retry loop (sched.retry) that the commit step and shard
// re-issues run under too: every attempt runs under the cluster's
// fault.RetryPolicy (attempt budget, capped exponential backoff with
// seeded jitter, optional per-attempt deadline), failures are classified
// transient/permanent via fault.IsTransient, and a speculation monitor
// launches duplicate attempts against stragglers with
// first-finisher-wins semantics.
//
// Determinism contract: an attempt's result depends only on its task
// (map functions are pure in their split, reduce functions in their key
// group), so whichever attempt wins — primary, retry or speculative
// duplicate — publishes identical output, and a chaos run's output is
// byte-identical to a fault-free run. The win gate publishes exactly one
// attempt's result and metrics and records the task's row; every other
// attempt finishes as a suppressed duplicate.

// specAttempt is the attempt coordinate of speculative duplicates: a
// range disjoint from primary retries, so the injector draws an
// independent fate for the duplicate.
const specAttempt = 1000

// attemptFn executes one attempt of a task: a runner's mapAttempt or
// reduceAttempt. It must be safe to run concurrently with another attempt
// of the same task (speculation, abandoned deadline attempts), and it
// touches no shared state: only the win gate does, for the winner.
type attemptFn func(task, attempt int) (attemptResult, error)

// schedTask is the scheduler's per-task state.
type schedTask struct {
	// idx is the task ordinal: with the phase it is the coordinate of the
	// task's injection and backoff-jitter draws.
	idx       int
	name      string
	partition string
	// block is a representative data block for injected corrupt-read
	// errors (nil for reduce tasks).
	block *dfs.Block
	// nextAttempt, when set, numbers the task's attempts instead of the
	// try ordinal (shard re-issues draw from their run's 2000+ range).
	nextAttempt func() int

	mu           sync.Mutex
	running      bool
	attemptStart time.Time
	specLaunched bool
	// specDone is closed when the speculative duplicate finishes (set
	// only after specLaunched).
	specDone chan struct{}
	done     bool
	doneCh   chan struct{}
}

// markWon closes the win gate; it reports true for exactly one attempt
// of the task.
func (ts *schedTask) markWon() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.done {
		return false
	}
	ts.done = true
	close(ts.doneCh)
	return true
}

// isDone reports whether some attempt already won.
func (ts *schedTask) isDone() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.done
}

// sched coordinates the tasks of one phase.
type sched struct {
	c     *Cluster
	rj    *runningJob
	phase string // obs.PhaseMap, PhaseReduce or PhaseCommit
	pol   fault.RetryPolicy
	// in draws every attempt's injected fate (nil: none); seed is the chaos
	// seed behind the backoff jitter (0 without a plan).
	in   *fault.Injector
	seed int64
	// retryCounter is the per-phase counter incremented alongside
	// CounterTaskRetries. Empty marks shard re-issues, whose failed tries
	// are not task retries: they stay uncounted and finish as failed.
	retryCounter string

	tasks []*schedTask
	run   attemptFn
	// rows and won hold, by task, each won task's row and winning attempt;
	// a row's Phase is set once its task has won.
	mu   sync.Mutex
	rows []TaskRow
	won  []attemptResult

	stop    chan struct{}
	helpers sync.WaitGroup // monitor + speculative attempts
}

// newSched creates a scheduler for one phase.
func newSched(c *Cluster, rj *runningJob, phase string, pol fault.RetryPolicy, retryCounter string) *sched {
	s := &sched{
		c: c, rj: rj, phase: phase, pol: pol, retryCounter: retryCounter,
		in:   c.Injector(),
		stop: make(chan struct{}),
	}
	if s.in != nil {
		s.seed = s.in.Plan().Seed
	}
	return s
}

func newSchedTask(idx int, name, partition string) *schedTask {
	return &schedTask{idx: idx, name: name, partition: partition, doneCh: make(chan struct{})}
}

// addTask registers the phase's next task, named after it and its index;
// call before runAll.
func (s *sched) addTask(partition string, block *dfs.Block) {
	ts := newSchedTask(len(s.tasks), fmt.Sprintf("%s-%d", s.phase, len(s.tasks)), partition)
	ts.block = block
	s.tasks = append(s.tasks, ts)
}

// start launches the speculation monitor (when enabled).
func (s *sched) start(ctx context.Context) {
	if !s.pol.Speculation {
		return
	}
	tick := s.pol.SpeculativeMin / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	s.helpers.Add(1)
	go func() {
		defer s.helpers.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				s.scanStragglers(ctx)
			}
		}
	}()
}

// close stops the monitor and waits for every in-flight speculative
// attempt, so callers may read published results afterwards.
func (s *sched) close() {
	close(s.stop)
	s.helpers.Wait()
}

// runAll executes every registered task's attempts through run under the
// cluster's shared slot pool, with the speculation monitor running
// alongside, and returns the per-task errors (indexed by task idx). It
// blocks until every attempt — including in-flight speculative duplicates
// — has finished, so callers may read rows and won immediately after.
// Because the pool is cluster-wide, tasks of concurrently running jobs
// contend for the same slots instead of each job claiming a full
// complement.
func (s *sched) runAll(ctx context.Context, run attemptFn) []error {
	s.run = run
	s.rows, s.won = make([]TaskRow, len(s.tasks)), make([]attemptResult, len(s.tasks))
	s.start(ctx)
	errs := make([]error, len(s.tasks))
	var wg sync.WaitGroup
	for _, ts := range s.tasks {
		wg.Add(1)
		go func(ts *schedTask) {
			defer wg.Done()
			// slot.wait shows, per task, how long the attempt sat behind the
			// cluster-wide slot pool before executing. It names its task
			// but carries no phase, so it never passes for an attempt.
			_, ss := obs.StartSpan(ctx, "slot.wait")
			ss.Task = ts.idx
			err := s.c.slots.Acquire(ctx)
			ss.End()
			if err != nil {
				errs[ts.idx] = err
				return
			}
			defer s.c.slots.Release()
			errs[ts.idx] = s.retry(ctx, ts, func(span *obs.Span, attempt int, d fault.Decision) error {
				return s.attempt(ctx, ts, span, attempt, false, d)
			})
		}(ts)
	}
	wg.Wait()
	s.close()
	return errs
}

// median returns the median duration of the phase's won tasks' rows (0
// when none has won yet).
func (s *sched) median() time.Duration {
	var durs []time.Duration
	s.mu.Lock()
	for _, r := range s.rows {
		if r.Phase != "" {
			durs = append(durs, r.Dur)
		}
	}
	s.mu.Unlock()
	if len(durs) == 0 {
		return 0
	}
	slices.Sort(durs)
	return durs[len(durs)/2]
}

// scanStragglers launches one speculative duplicate for every running
// task that exceeds the straggler threshold (relative to the median of
// completed tasks; speculation needs at least one completion to have a
// baseline).
func (s *sched) scanStragglers(ctx context.Context) {
	med := s.median()
	if med == 0 {
		return
	}
	threshold := s.pol.StragglerThreshold(med)
	now := time.Now()
	for _, ts := range s.tasks {
		ts.mu.Lock()
		straggling := ts.running && !ts.done && !ts.specLaunched && now.Sub(ts.attemptStart) > threshold
		if straggling {
			// Speculative duplicates draw from the same shared slot pool
			// as primary attempts; when the cluster is saturated the
			// duplicate is simply not launched this tick (speculation is
			// opportunistic, never back-pressure).
			if !s.c.slots.TryAcquire() {
				ts.mu.Unlock()
				continue
			}
			ts.specLaunched = true
			ts.specDone = make(chan struct{})
		}
		ts.mu.Unlock()
		if !straggling {
			continue
		}
		s.rj.reg.Inc(CounterSpecLaunched, 1)
		s.helpers.Add(1)
		go func(ts *schedTask) {
			defer s.helpers.Done()
			defer s.c.slots.Release()
			defer close(ts.specDone)
			span := s.startSpan(ctx, ts, specAttempt, true)
			d, err := s.inject(ts, specAttempt)
			if err == nil {
				err = s.attempt(ctx, ts, span, specAttempt, true, d)
			}
			if err != nil {
				// A failed duplicate is abandoned, never retried: the
				// primary attempt still owns the task.
				endAs(span, obs.OutcomeFailed)
			}
		}(ts)
	}
}

// startSpan opens the span of one attempt under the phase's span.
func (s *sched) startSpan(ctx context.Context, ts *schedTask, attempt int, spec bool) *obs.Span {
	_, span := obs.StartSpan(ctx, ts.name)
	span.Phase, span.Task = s.phase, ts.idx
	if s.phase == obs.PhaseCommit {
		span.Task = -1 // the commit step is not task-scoped
	}
	span.Partition, span.Attempt, span.Speculative = ts.partition, attempt, spec
	return span
}

// endAs records an attempt's outcome and ends its span.
func endAs(span *obs.Span, outcome string) {
	span.Outcome = outcome
	span.End()
}

// inject draws an attempt's seeded fate. Injected transient and permanent
// failures become the attempt's error here, for every phase; the other
// kinds (corrupt read, straggle) are returned for sched.attempt to act on.
func (s *sched) inject(ts *schedTask, attempt int) (fault.Decision, error) {
	d := s.in.Decide(s.phase, ts.idx, attempt)
	switch d.Kind {
	case fault.KindTransient:
		return d, &fault.InjectedError{Phase: s.phase, Task: ts.idx, Attempt: attempt}
	case fault.KindPermanent:
		return d, &fault.InjectedError{Phase: s.phase, Task: ts.idx, Attempt: attempt, Permanent: true}
	}
	return d, nil
}

// retry is the runtime's one retry loop: map and reduce tasks, the commit
// step and shard re-issues all drive their attempts through it. Each try
// opens a span, draws the attempt's injected fate and runs body, which
// finishes the span itself on success; on failure the loop finishes it
// and either retries after the policy's seeded backoff or gives up —
// budget exhausted, permanent error, or ctx done. The backoff is a timer
// that also wakes when a speculative duplicate wins or ctx ends; a job
// cancelled while backing off starts no further attempt.
func (s *sched) retry(ctx context.Context, ts *schedTask, body func(span *obs.Span, attempt int, d fault.Decision) error) error {
	for try := 0; ; try++ {
		if ts.isDone() {
			return nil // a speculative duplicate won during our backoff
		}
		attempt := try
		if ts.nextAttempt != nil {
			attempt = ts.nextAttempt()
		}
		span := s.startSpan(ctx, ts, attempt, false)
		d, err := s.inject(ts, attempt)
		if err == nil {
			err = body(span, attempt, d)
		}
		if err == nil {
			return nil
		}
		if !s.pol.ShouldRetry(err, try) || ctx.Err() != nil {
			endAs(span, obs.OutcomeFailed)
			// If a speculative duplicate is still in flight it may yet save
			// the task; wait for it before declaring failure.
			ts.mu.Lock()
			specDone := ts.specDone
			ts.mu.Unlock()
			if specDone != nil {
				<-specDone
				if ts.isDone() {
					return nil
				}
			}
			return err
		}
		if s.retryCounter == "" {
			endAs(span, obs.OutcomeFailed)
		} else {
			endAs(span, obs.OutcomeRetry)
			s.rj.reg.Inc(CounterTaskRetries, 1)
			s.rj.reg.Inc(s.retryCounter, 1)
		}
		if wait := s.pol.Backoff(s.seed, s.phase, ts.idx, attempt); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ts.doneCh: // a duplicate won; stop retrying
			case <-ctx.Done():
			}
			timer.Stop()
		}
		if ctx.Err() != nil {
			return err
		}
	}
}

// attempt runs one map or reduce attempt of ts under its drawn fate d:
// acts out an injected corrupt read or straggle, enforces the per-attempt
// deadline, and passes the result through the win gate. A nil return
// means the task is decided (this attempt won, or finished as a
// suppressed duplicate).
func (s *sched) attempt(ctx context.Context, ts *schedTask, span *obs.Span, attempt int, spec bool, d fault.Decision) error {
	if !spec {
		ts.mu.Lock()
		ts.running = true
		ts.attemptStart = time.Now()
		ts.mu.Unlock()
		defer func() {
			ts.mu.Lock()
			ts.running = false
			ts.mu.Unlock()
		}()
	}
	start := time.Now()

	switch d.Kind {
	case fault.KindCorrupt:
		// A corrupted block read: the DFS returned bytes whose CRC
		// does not match. Retryable — the next read models a healthy
		// replica.
		s.rj.reg.Inc(CounterChecksumFailures, 1)
		if b := ts.block; b != nil {
			return &dfs.ChecksumError{Block: b.ID, Want: b.Checksum(), Got: ^b.Checksum()}
		}
		return fault.Transientf("fault: injected corrupt read (%s task %d attempt %d)", s.phase, ts.idx, attempt)
	case fault.KindStraggle:
		// Straggle relative to the speculation threshold so injected
		// stragglers reliably cross it: sleep Slowdown x threshold.
		s.rj.reg.Inc(CounterStragglersInjected, 1)
		delay := time.Duration(float64(s.pol.StragglerThreshold(s.median())) * d.Slowdown)
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
			timer.Stop()
		}
	}

	res, err := s.exec(ctx, ts, attempt)
	if err != nil {
		return err
	}
	row := res.row(s.phase)
	span.RecordsIn, span.RecordsOut, span.Bytes = row.RecordsIn, row.RecordsOut, row.Bytes
	if !ts.markWon() {
		endAs(span, obs.OutcomeDuplicate)
		s.rj.reg.Inc(CounterSpecSuppressed, 1)
		return nil
	}
	row.Task, row.Partition, row.Dur = ts.idx, ts.partition, time.Since(start)
	s.win(row, res)
	endAs(span, obs.OutcomeOK)
	if spec {
		s.rj.reg.Inc(CounterSpecWon, 1)
	}
	return nil
}

// win is the win gate's bookkeeping, done once per task for its winning
// attempt: the buffer gets the phase's duration observation and is merged
// into the job registry, a map attempt's shards are published (so reducers
// read exactly one attempt's shards), and the task's row and result are
// kept.
func (s *sched) win(row TaskRow, res attemptResult) {
	hist := HistMapTaskDurationUS
	if s.phase == obs.PhaseReduce {
		hist = HistReduceTaskDurationUS
	}
	res.tm.Observe(hist, float64(row.Dur.Microseconds()))
	s.rj.reg.Merge(res.tm)
	if res.publish != nil {
		res.publish()
	}
	s.mu.Lock()
	s.rows[row.Task], s.won[row.Task] = row, res
	s.mu.Unlock()
}

// exec runs the attempt body, bounding it by the policy's per-task
// deadline. An attempt that outlives its deadline keeps running in the
// background but its result is dropped (it can never win), and the
// deadline error is retryable.
func (s *sched) exec(ctx context.Context, ts *schedTask, attempt int) (attemptResult, error) {
	if s.pol.TaskDeadline <= 0 {
		return s.run(ts.idx, attempt)
	}
	type result struct {
		res attemptResult
		err error
	}
	ch := make(chan result, 1) // buffered: the abandoned attempt must not block
	go func() {
		res, err := s.run(ts.idx, attempt)
		ch <- result{res, err}
	}()
	timer := time.NewTimer(s.pol.TaskDeadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-timer.C:
		s.rj.reg.Inc(CounterDeadlineExceeded, 1)
		return attemptResult{}, fmt.Errorf("mapreduce: %s task %d attempt %d exceeded deadline %v: %w",
			s.phase, ts.idx, attempt, s.pol.TaskDeadline, context.DeadlineExceeded)
	case <-ctx.Done():
		return attemptResult{}, ctx.Err()
	}
}
