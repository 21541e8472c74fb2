package mapreduce

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"spatialhadoop/internal/dfs"
)

// runWordCount runs the canonical job on a cluster with the given worker
// count and returns the sorted output.
func runWordCount(t *testing.T, workers int) []string {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 128, DataNodes: workers})
	c := NewCluster(fs, workers)
	var recs []string
	for i := 0; i < 97; i++ {
		recs = append(recs, "alpha beta gamma delta "+strconv.Itoa(i%7))
	}
	if err := fs.WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(wordCountJob("out")); err != nil {
		t.Fatal(err)
	}
	out, err := fs.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestOutputIndependentOfWorkerCount checks the cluster size changes only
// scheduling, never the answer.
func TestOutputIndependentOfWorkerCount(t *testing.T) {
	ref := runWordCount(t, 1)
	for _, w := range []int{2, 5, 16} {
		got := runWordCount(t, w)
		if strings.Join(got, ";") != strings.Join(ref, ";") {
			t.Fatalf("workers=%d changed the output", w)
		}
	}
}

// TestReducerCountInvariance checks the hash-partitioned shuffle produces
// the same grouped answer for any reducer count.
func TestReducerCountInvariance(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 64, DataNodes: 4})
	c := NewCluster(fs, 4)
	var recs []string
	for i := 0; i < 50; i++ {
		recs = append(recs, strconv.Itoa(i%11))
	}
	fs.WriteFile("in", recs)
	run := func(numRed int) []string {
		job := closureJob(Job{
			Name:        "group",
			Input:       []string{"in"},
			NumReducers: numRed,
			Output:      "out" + strconv.Itoa(numRed),
		}, KindFuncs{
			Map: func(ctx *TaskContext, split *Split) error {
				for _, r := range split.Records() {
					ctx.Emit(r, "1")
				}
				return nil
			},
			Reduce: func(ctx *TaskContext, key string, values []string) error {
				ctx.Write(key + "=" + strconv.Itoa(len(values)))
				return nil
			},
		})
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		out, _ := fs.ReadAll(job.Output)
		sort.Strings(out)
		return out
	}
	ref := run(1)
	for _, nr := range []int{2, 3, 7, 32} {
		got := run(nr)
		if strings.Join(got, ";") != strings.Join(ref, ";") {
			t.Fatalf("numReducers=%d changed the grouped output", nr)
		}
	}
}

// TestSimulatedParallelBounds checks the LPT estimate is sane: between the
// longest task and the serial total, and non-increasing in workers.
func TestSimulatedParallelBounds(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 64, DataNodes: 4})
	c := NewCluster(fs, 4)
	var recs []string
	for i := 0; i < 64; i++ {
		recs = append(recs, strings.Repeat("word ", 20))
	}
	fs.WriteFile("text", recs)
	rep, err := c.Run(wordCountJob("out"))
	if err != nil {
		t.Fatal(err)
	}
	serial := rep.MapWorkSum + rep.ReduceWorkSum + rep.ShuffleTime + rep.CommitTime
	one := rep.SimulatedParallel(1)
	if one < serial {
		t.Errorf("1 worker estimate %v below serial cost %v", one, serial)
	}
	prev := one
	for _, w := range []int{2, 4, 25, 1000} {
		cur := rep.SimulatedParallel(w)
		if cur > prev {
			t.Errorf("estimate increased with more workers: %v -> %v", prev, cur)
		}
		if cur < rep.MapTaskMax {
			t.Errorf("estimate %v below longest map task %v", cur, rep.MapTaskMax)
		}
		prev = cur
	}
}
