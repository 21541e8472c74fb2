package mapreduce

import (
	"slices"
	"strings"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
)

// TestWriteSelectedOutput: a map-only job that selects records writes the
// master's own copies of them, in task then call order, and counts them
// as output; an attempt that selects what its split does not hold, or
// both writes and selects, or a reduce that selects, fails permanently
// and publishes nothing.
func TestWriteSelectedOutput(t *testing.T) {
	c := newTestCluster(t, 9, 2)
	recs := []string{"a0", "b1", "c2", "d3", "e4", "f5", "g6", "h7", "i8", "j9"}
	if err := c.FS().WriteFile("in", recs); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(closureJob(Job{Name: "evens", Input: []string{"in"}, Output: "out"}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for bi, b := range split.Blocks {
				var ids []int
				for i := 0; i < b.NumRecords(); i += 2 {
					ids = append(ids, i)
				}
				ctx.WriteSelected(bi, ids)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	f, _ := c.FS().Open("in")
	for _, b := range f.Blocks {
		for i := 0; i < b.NumRecords(); i += 2 {
			want = append(want, b.Record(i))
		}
	}
	if out, _ := c.FS().ReadAll("out"); !slices.Equal(out, want) || rep.OutputCount != int64(len(want)) || len(f.Blocks) < 3 {
		t.Fatalf("output %q (count %d) over %d blocks, want %q", out, rep.OutputCount, len(f.Blocks), want)
	}

	for name, kf := range map[string]KindFuncs{
		"block beyond the split": {Map: func(ctx *TaskContext, split *Split) error {
			ctx.WriteSelected(len(split.Blocks), []int{0})
			return nil
		}},
		"ids not ascending": {Map: func(ctx *TaskContext, split *Split) error {
			ctx.WriteSelected(0, []int{1, 0})
			return nil
		}},
		"id beyond the block": {Map: func(ctx *TaskContext, split *Split) error {
			ctx.WriteSelected(0, []int{split.Blocks[0].NumRecords()})
			return nil
		}},
		"write and select": {Map: func(ctx *TaskContext, split *Split) error {
			ctx.Write("x")
			ctx.WriteSelected(0, []int{0})
			return nil
		}},
		"select in a reduce": {
			Map: func(ctx *TaskContext, split *Split) error { ctx.Emit("k", "v"); return nil },
			Reduce: func(ctx *TaskContext, key string, values []string) error {
				ctx.WriteSelected(0, []int{0})
				return nil
			},
		},
	} {
		_, err := c.Run(closureJob(Job{Name: name, Input: []string{"in"}, Output: "bad"}, kf))
		if err == nil || fault.IsTransient(err) || !strings.Contains(err.Error(), "select") {
			t.Errorf("%s: err = %v, want a permanent selection error", name, err)
		}
		if c.FS().Exists("bad") {
			t.Errorf("%s: the failed job published its output", name)
		}
	}
}

// TestSelectionSource: a selection is resolved only against a block it
// fits — the ordinal inside the split, ids ascending below the block's
// record count.
func TestSelectionSource(t *testing.T) {
	b := dfs.NewBlockFromRecords("", []string{"1,1", "2,2", "3,3"})
	split := &Split{Blocks: []*dfs.Block{b}}
	for _, s := range []Selection{
		{IDs: []int{0, 2}},
		{IDs: nil},
	} {
		if got, err := s.source(split); err != nil || got != b {
			t.Errorf("%+v: %v", s, err)
		}
	}
	for _, s := range []Selection{
		{Block: 1, IDs: []int{0}},
		{Block: -1, IDs: []int{0}},
		{IDs: []int{-1}},
		{IDs: []int{3}},
		{IDs: []int{1, 1}},
		{IDs: []int{2, 1}},
	} {
		if _, err := s.source(split); err == nil {
			t.Errorf("%+v: accepted", s)
		}
	}
}
