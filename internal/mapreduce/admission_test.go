package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
)

// sleepJob writes its input through to output, holding each map task open
// for d so concurrent tasks overlap observably.
func sleepJob(name, output string, d time.Duration, running, high *atomic.Int64) *Job {
	return closureJob(Job{
		Name:   name,
		Input:  []string{"in"},
		Output: output,
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			if running != nil {
				n := running.Add(1)
				for {
					h := high.Load()
					if n <= h || high.CompareAndSwap(h, n) {
						break
					}
				}
				defer running.Add(-1)
			}
			time.Sleep(d)
			for _, r := range split.Records() {
				ctx.Write(r)
			}
			return nil
		},
	})
}

func writeInput(t *testing.T, fs *dfs.FileSystem, n int) {
	t.Helper()
	recs := make([]string, n)
	for i := range recs {
		recs[i] = fmt.Sprintf("rec-%03d", i)
	}
	if err := fs.WriteFile("in", recs); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobsShareSlotPool is the oversubscription regression
// test: before the shared pool, each racing RunCtx took its own
// execSlots() worth of workers, so J concurrent jobs ran J*workers map
// tasks at once. Now every task of every job acquires from one
// cluster-level pool, and the observed task concurrency must never
// exceed the cluster's worker count.
func TestConcurrentJobsShareSlotPool(t *testing.T) {
	const workers = 2
	const jobs = 4
	c := newTestCluster(t, 64, workers) // small blocks -> several map tasks per job
	writeInput(t, c.fs, 40)

	var running, high atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			job := sleepJob("shared", fmt.Sprintf("out%d", j), 2*time.Millisecond, &running, &high)
			_, errs[j] = c.RunCtx(context.Background(), job)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	if got := high.Load(); got > workers {
		t.Fatalf("observed %d concurrent map tasks across %d jobs, cluster cap is %d: jobs are not sharing the slot pool", got, jobs, workers)
	}
	if hw, cap := c.Slots().HighWater(), c.Slots().Cap(); hw > cap {
		t.Fatalf("pool high-water %d exceeds capacity %d", hw, cap)
	}
}

// TestSlotPoolHighWaterProperty: across randomized mixes of concurrent
// jobs (varying job counts, task durations and cluster sizes), the shared
// pool's high-water mark never exceeds its capacity, and the pool is idle
// once all jobs return.
func TestSlotPoolHighWaterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		workers := 1 + rng.Intn(4)
		jobs := 2 + rng.Intn(4)
		c := newTestCluster(t, int64(32+rng.Intn(96)), workers)
		writeInput(t, c.fs, 20+rng.Intn(40))

		var wg sync.WaitGroup
		errs := make([]error, jobs)
		for j := 0; j < jobs; j++ {
			d := time.Duration(rng.Intn(3)) * time.Millisecond
			wg.Add(1)
			go func(j int, d time.Duration) {
				defer wg.Done()
				_, errs[j] = c.RunCtx(context.Background(), sleepJob("prop", fmt.Sprintf("out%d", j), d, nil, nil))
			}(j, d)
		}
		wg.Wait()
		for j, err := range errs {
			if err != nil {
				t.Fatalf("trial %d job %d: %v", trial, j, err)
			}
		}
		if hw, cap := c.Slots().HighWater(), c.Slots().Cap(); hw > cap {
			t.Fatalf("trial %d (workers=%d jobs=%d): high-water %d > cap %d", trial, workers, jobs, hw, cap)
		}
		if inUse := c.Slots().InUse(); inUse != 0 {
			t.Fatalf("trial %d: %d slots still held after all jobs returned", trial, inUse)
		}
	}
}

// gateJob blocks its (single) map task until gate closes, so tests can
// hold a run slot open deliberately.
func gateJob(output string, gate chan struct{}) *Job {
	return closureJob(Job{
		Name:   "gated",
		Input:  []string{"in"},
		Output: output,
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			<-gate
			for _, r := range split.Records() {
				ctx.Write(r)
			}
			return nil
		},
	})
}

// waitStats polls AdmissionStats until cond holds or the deadline passes.
func waitStats(t *testing.T, c *Cluster, cond func(inFlight, queued int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(c.AdmissionStats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	inFlight, queued := c.AdmissionStats()
	t.Fatalf("admission never reached expected state; inFlight=%d queued=%d", inFlight, queued)
}

// TestOverloadRejectionOnlyWhenFull: a submission is rejected with
// ErrOverloaded only when the run slots AND the wait queue are both
// genuinely full, and the rejection reports exactly that occupancy.
func TestOverloadRejectionOnlyWhenFull(t *testing.T) {
	c := newTestCluster(t, 1<<20, 2) // one block -> one map task per job
	writeInput(t, c.fs, 8)
	c.SetAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 2})

	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = c.RunCtx(context.Background(), gateJob("out0", gate)) }()
	waitStats(t, c, func(inFlight, queued int) bool { return inFlight == 1 })

	// Fill the queue. These block in enter() until the gate opens.
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunCtx(context.Background(), gateJob(fmt.Sprintf("out%d", i), gate))
		}(i)
	}
	waitStats(t, c, func(inFlight, queued int) bool { return inFlight == 1 && queued == 2 })

	// Slots and queue both full: the next submission must be rejected,
	// and the typed error must prove both were full at decision time.
	_, err := c.RunCtx(context.Background(), gateJob("outX", gate))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full cluster accepted a job: err=%v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("rejection is not an *OverloadError: %v", err)
	}
	if oe.InFlight != oe.MaxInFlight || oe.Queued != oe.QueueDepth {
		t.Fatalf("rejection with spare capacity: %+v", oe)
	}

	// Free capacity: the same submission is now admitted, proving
	// rejections happen only at genuine saturation.
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted job %d failed: %v", i, err)
		}
	}
	if _, err := c.RunCtx(context.Background(), gateJob("outY", gate)); err != nil {
		t.Fatalf("job rejected after capacity freed: %v", err)
	}
}

// TestDrainCompletesAdmittedJobs: Drain lets every admitted job — running
// and queued — finish, refuses new work with ErrDraining, and returns
// only at quiescence.
func TestDrainCompletesAdmittedJobs(t *testing.T) {
	c := newTestCluster(t, 1<<20, 2)
	writeInput(t, c.fs, 8)
	c.SetAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 8})

	gate := make(chan struct{})
	const jobs = 4
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunCtx(context.Background(), gateJob(fmt.Sprintf("out%d", i), gate))
		}(i)
	}
	waitStats(t, c, func(inFlight, queued int) bool { return inFlight == 1 && queued == jobs-1 })

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- c.Drain(ctx)
	}()
	// Drain must not complete while jobs are still admitted.
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned (%v) with jobs still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	// New submissions are refused once draining.
	if _, err := c.RunCtx(context.Background(), gateJob("outX", gate)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission during drain: err=%v, want ErrDraining", err)
	}

	close(gate)
	wg.Wait()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted job %d failed during drain: %v", i, err)
		}
	}
	// Every admitted job's output must exist and be complete.
	for i := 0; i < jobs; i++ {
		recs, err := c.fs.ReadAll(fmt.Sprintf("out%d", i))
		if err != nil {
			t.Fatalf("out%d: %v", i, err)
		}
		if len(recs) != 8 {
			t.Fatalf("out%d has %d records, want 8", i, len(recs))
		}
	}
}

// TestQueuedJobCancellation: a queued job whose context is cancelled
// leaves the queue cleanly and does not leak occupancy.
func TestQueuedJobCancellation(t *testing.T) {
	c := newTestCluster(t, 1<<20, 2)
	writeInput(t, c.fs, 4)
	c.SetAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 4})

	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var firstErr error
	go func() { defer wg.Done(); _, firstErr = c.RunCtx(context.Background(), gateJob("out0", gate)) }()
	waitStats(t, c, func(inFlight, queued int) bool { return inFlight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := c.RunCtx(ctx, gateJob("out1", gate))
		queued <- err
	}()
	waitStats(t, c, func(inFlight, q int) bool { return q == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job: err=%v", err)
	}
	waitStats(t, c, func(inFlight, q int) bool { return q == 0 })

	close(gate)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("running job: %v", firstErr)
	}
	if inFlight, q := c.AdmissionStats(); inFlight != 0 || q != 0 {
		t.Fatalf("occupancy leaked: inFlight=%d queued=%d", inFlight, q)
	}
}
