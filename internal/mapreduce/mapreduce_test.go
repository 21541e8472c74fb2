package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
)

func newTestCluster(t *testing.T, blockSize int64, workers int) *Cluster {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: blockSize, DataNodes: workers})
	return NewCluster(fs, workers)
}

var closureKinds atomic.Int64

// closureJob is this package's adapter from test closures to the one job
// shape: it registers a uniquely named kind whose builder returns kf and
// returns the job with that Kind.
func closureJob(job Job, kf KindFuncs) *Job {
	job.Kind = fmt.Sprintf("test-closure-%d", closureKinds.Add(1))
	RegisterKind(job.Kind, func(map[string]string) (KindFuncs, error) { return kf, nil })
	return &job
}

// wordCount is the canonical MapReduce smoke test.
func wordCount() KindFuncs {
	return KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, rec := range split.Records() {
				for _, w := range strings.Fields(rec) {
					ctx.Emit(w, "1")
				}
			}
			return nil
		},
		Combine: func(ctx *TaskContext, key string, values []string) error {
			ctx.Emit(key, strconv.Itoa(len(values)))
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values []string) error {
			sum := 0
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				sum += n
			}
			ctx.Write(fmt.Sprintf("%s\t%d", key, sum))
			return nil
		},
	}
}

func wordCountJob(output string) *Job {
	return closureJob(Job{Name: "wordcount", Input: []string{"text"}, NumReducers: 3, Output: output}, wordCount())
}

func writeText(t *testing.T, c *Cluster) {
	t.Helper()
	var recs []string
	for i := 0; i < 200; i++ {
		recs = append(recs, "the quick brown fox jumps over the lazy dog")
	}
	if err := c.FS().WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
}

func TestWordCount(t *testing.T) {
	c := newTestCluster(t, 256, 4)
	writeText(t, c)
	rep, err := c.Run(wordCountJob("out"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Splits < 2 {
		t.Errorf("expected multiple splits, got %d", rep.Splits)
	}
	out, err := c.FS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range out {
		parts := strings.Split(rec, "\t")
		n, _ := strconv.Atoi(parts[1])
		counts[parts[0]] = n
	}
	if counts["the"] != 400 || counts["fox"] != 200 {
		t.Errorf("counts = %v", counts)
	}
	if len(counts) != 8 {
		t.Errorf("distinct words = %d, want 8", len(counts))
	}
	if rep.Counters[CounterMapRecordsIn] != 200 {
		t.Errorf("map records in = %d", rep.Counters[CounterMapRecordsIn])
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	c := newTestCluster(t, 256, 4)
	writeText(t, c)
	withCombiner, err := c.Run(wordCountJob("out"))
	if err != nil {
		t.Fatal(err)
	}
	noCombine := wordCount()
	noCombine.Combine = nil
	withoutCombiner, err := c.Run(closureJob(Job{Name: "wordcount", Input: []string{"text"}, NumReducers: 3, Output: "out2"}, noCombine))
	if err != nil {
		t.Fatal(err)
	}
	if withCombiner.Counters[CounterShuffleBytes] >= withoutCombiner.Counters[CounterShuffleBytes] {
		t.Errorf("combiner should cut shuffle bytes: %d vs %d",
			withCombiner.Counters[CounterShuffleBytes], withoutCombiner.Counters[CounterShuffleBytes])
	}
	// Results must be identical either way.
	a, _ := c.FS().ReadAll("out")
	b, _ := c.FS().ReadAll("out2")
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Error("combiner changed the result")
	}
}

func TestMapOnlyJobDirectOutput(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	c.FS().WriteFile("in", []string{"a", "b", "c", "d", "e", "f", "g", "h"})
	_, err := c.Run(closureJob(Job{
		Name:   "identity",
		Input:  []string{"in"},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Write("out:" + r)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 8 {
		t.Fatalf("output = %v", out)
	}
}

func TestFilterPrunesSplits(t *testing.T) {
	c := newTestCluster(t, 16, 2)
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	rep, err := c.Run(closureJob(Job{
		Name:  "filtered",
		Input: []string{"in"},
		Filter: func(splits []*Split) []*Split {
			return splits[:2]
		},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for range split.Records() {
				ctx.Inc("seen", 1)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SplitsTotal <= rep.Splits {
		t.Errorf("filter should prune: %d of %d", rep.Splits, rep.SplitsTotal)
	}
	if rep.Counters["seen"] >= 40 {
		t.Errorf("saw %d records; pruning had no effect", rep.Counters["seen"])
	}
}

func TestExplicitSplitsAndTags(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	c.FS().WriteFile("in", []string{"x", "y"})
	f, _ := c.FS().Open("in")
	splits := []*Split{
		{Partition: "p0", MBR: geom.NewRect(0, 0, 1, 1), Blocks: f.Blocks, Tag: "hello"},
	}
	_, err := c.Run(closureJob(Job{
		Name:   "tagged",
		Splits: splits,
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			ctx.Write(split.Tag + ":" + split.Partition)
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 1 || out[0] != "hello:p0" {
		t.Errorf("out = %v", out)
	}
}

func TestConfBroadcast(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	c.FS().WriteFile("in", []string{"r"})
	_, err := c.Run(closureJob(Job{
		Name:   "conf",
		Input:  []string{"in"},
		Conf:   map[string]string{"sky": "value42"},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			ctx.Write(ctx.Config("sky"))
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 1 || out[0] != "value42" {
		t.Errorf("out = %v", out)
	}
}

// TestFailureInjectionRetries checks that transient task failures are
// retried and do not duplicate or lose output.
func TestFailureInjectionRetries(t *testing.T) {
	c := newTestCluster(t, 16, 4)
	var recs []string
	for i := 0; i < 30; i++ {
		recs = append(recs, fmt.Sprintf("%012d", i))
	}
	c.FS().WriteFile("in", recs)
	c.SetFault(fault.Plan{FailEveryKth: 3}) // every third attempt dies once
	rep, err := c.Run(closureJob(Job{
		Name:   "flaky",
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
	if rep.Counters[CounterTaskRetries] == 0 {
		t.Error("expected some retries")
	}
	out, _ := c.FS().ReadAll("out")
	if len(out) != 30 {
		t.Fatalf("output records = %d, want exactly 30 (no loss, no duplication)", len(out))
	}
	sort.Strings(out)
	for i, r := range out {
		if r != fmt.Sprintf("%012d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
}

func TestJobValidation(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	// A kind nobody registered fails at Run with an error naming it.
	if _, err := c.Run(&Job{Name: "nokind", Kind: "no-such-kind", Output: "o"}); err == nil || !strings.Contains(err.Error(), `"no-such-kind"`) {
		t.Errorf("unregistered kind: err = %v, want one naming the kind", err)
	}
	if _, err := c.Run(closureJob(Job{Name: "nomap", Output: "o"}, KindFuncs{})); err == nil {
		t.Error("expected error for missing map")
	}
	if _, err := c.Run(closureJob(Job{Name: "noout"}, KindFuncs{Map: func(*TaskContext, *Split) error { return nil }})); err == nil {
		t.Error("expected error for missing output")
	}
	if _, err := c.Run(closureJob(Job{
		Name:   "badinput",
		Input:  []string{"missing"},
		Output: "o",
	}, KindFuncs{
		Map: func(*TaskContext, *Split) error { return nil },
	})); err == nil {
		t.Error("expected error for missing input")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	c.FS().WriteFile("in", []string{"x"})
	_, err := c.Run(closureJob(Job{
		Name:   "maperr",
		Input:  []string{"in"},
		Output: "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			return fmt.Errorf("boom")
		},
	}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}
