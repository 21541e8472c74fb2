package mapreduce

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
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

// TestSelectedOutputCutsLikeText: the map tasks over a small-block input
// of several column blocks each select from their block, and the commit
// writes all their matches as one run of points. The output's block boundaries, Bytes, Records and
// record order are those of a WriteRecord of the selected text in task
// order, its blocks ship as columns, and their CRCs are those of the same
// points written one at a time.
func TestSelectedOutputCutsLikeText(t *testing.T) {
	const blockSize = 512
	c := newTestCluster(t, blockSize, 3)
	rng := rand.New(rand.NewSource(41))
	pts, lens := make([]geom.Point, 600), make([]uint8, 600)
	for i := range pts {
		pts[i] = geom.Pt(rng.NormFloat64()*1e3, float64(i)/7)
		lens[i] = uint8(len(geomio.EncodePoint(pts[i])))
	}
	w, err := c.FS().Create("in")
	if err != nil {
		t.Fatal(err)
	}
	w.WritePoints(pts, lens)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A heap file is one split, and one map task, per block.
	keep := func(i int) bool { return i%3 != 1 }
	rep, err := c.Run(closureJob(Job{Name: "thirds", Input: []string{"in"}, Output: "out"}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for bi, b := range split.Blocks {
				var ids []int
				for i := range b.NumRecords() {
					if keep(i) {
						ids = append(ids, i)
					}
				}
				ctx.WriteSelected(bi, ids)
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.FS().Open("in")
	out, _ := c.FS().Open("out")
	if len(in.Blocks) < 4 || rep.SplitsTotal < 2 {
		t.Fatalf("%d input blocks in %d splits, want several of each", len(in.Blocks), rep.SplitsTotal)
	}

	ref := dfs.New(dfs.Config{BlockSize: blockSize, DataNodes: 3})
	tw, _ := ref.Create("text")
	pw, _ := ref.Create("points")
	for _, sp := range SplitsOf(in) {
		for _, b := range sp.Blocks {
			col, _ := b.Points()
			for i := range b.NumRecords() {
				if keep(i) {
					rec := b.Record(i)
					tw.WriteRecord(rec)
					pw.WritePoints([]geom.Point{col[i]}, []uint8{uint8(len(rec))})
				}
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	text, _ := ref.Open("text")
	one, _ := ref.Open("points")
	if out.Bytes != text.Bytes || out.Records != text.Records || len(out.Blocks) != len(text.Blocks) || len(out.Blocks) < 3 {
		t.Fatalf("output: %d bytes, %d records, %d blocks; the text write %d, %d, %d",
			out.Bytes, out.Records, len(out.Blocks), text.Bytes, text.Records, len(text.Blocks))
	}
	for i, b := range out.Blocks {
		tb := text.Blocks[i]
		if b.Bytes != tb.Bytes || !slices.Equal(b.Records(), tb.Records()) {
			t.Fatalf("output block %d: %d bytes, %d records; the text write's %d, %d", i, b.Bytes, b.NumRecords(), tb.Bytes, tb.NumRecords())
		}
		if payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); err != nil || payload[0] != dfs.FrameColumn {
			t.Fatalf("output block %d ships as %q (%v), want a column", i, payload[:1], err)
		}
		if b.Checksum() != one.Blocks[i].Checksum() || b.Verify() != nil {
			t.Fatalf("output block %d: CRC %08x, the point-by-point write's %08x", i, b.Checksum(), one.Blocks[i].Checksum())
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
