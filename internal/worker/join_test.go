package worker

import (
	"slices"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// TestJoinAnswersTheSameEverywhere: the join reads MBRs from where its
// blocks hold them, and that changes no answer. Over a tessellation pair,
// the indexed join's output file is byte-identical in process and on a
// worker pool at replication 0 and 2; the same regions stored as text
// (WriteFile, so every MBR is parsed) join to the same pair set; PBSM's
// pair set over region-marked and over text heaps is the indexed join's;
// and a region range query answers alike on marked and text copies.
func TestJoinAnswersTheSameEverywhere(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	query := geom.NewRect(150, 200, 640, 720)
	var regs [2][]geom.Region
	for i := range regs {
		for _, pg := range datagen.Tessellation(7-i, 5+i, area, int64(11+i)) {
			regs[i] = append(regs[i], geom.RegionOf(pg))
		}
	}
	load := func() *core.System {
		sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 3})
		for i, tech := range []sindex.Technique{sindex.Grid, sindex.STR} {
			side := string(rune('a' + i))
			if _, err := sys.LoadRegions(side, regs[i], tech); err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadRegionsHeap("heap-"+side, regs[i]); err != nil {
				t.Fatal(err)
			}
			recs := make([]string, len(regs[i]))
			for j, rg := range regs[i] {
				recs[j] = geomio.EncodeRegion(rg)
			}
			if err := sys.FS().WriteFile("text-"+side, recs); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	join := func(sys *core.System, left, right string) (raw []string, pairs []string) {
		got, rep, err := ops.SpatialJoinIndexed(sys, left, right)
		if err != nil {
			t.Fatal(err)
		}
		if raw, err = sys.FS().ReadAll(rep.OutputFile); err != nil {
			t.Fatal(err)
		}
		return raw, pairSet(got)
	}
	tag := func(sys *core.System, file string) byte {
		f, err := sys.FS().Open(file)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(f.Blocks[0]))
		if err != nil {
			t.Fatal(err)
		}
		return payload[0]
	}

	sys := load()
	if tag(sys, "a") != dfs.FrameRegions || tag(sys, "heap-b") != dfs.FrameRegions || tag(sys, "text-a") != dfs.FrameText {
		t.Fatal("the loaded files do not cover both sides of the region mark")
	}
	wantRaw, want := join(sys, "a", "b")
	if len(want) == 0 {
		t.Fatal("the tessellations joined to nothing")
	}

	for _, name := range [][2]string{{"text-a", "text-b"}, {"heap-a", "heap-b"}} {
		got, _, err := ops.SpatialJoinIndexed(sys, name[0], name[1])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pairSet(got), want) {
			t.Errorf("indexed join of %v: %d pairs, want the indexed files' %d", name, len(got), len(want))
		}
		for _, side := range []int{2, 5} {
			got, _, err := ops.SpatialJoinPBSM(sys, name[0], name[1], side)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pairSet(got), want) {
				t.Errorf("PBSM (grid %d) of %v: %d pairs, want the indexed join's %d", side, name, len(got), len(want))
			}
		}
	}

	// An indexed copy written as text, partitions and index kept, is
	// unmarked and joins to the same output file.
	for _, side := range []string{"a", "b"} {
		f, err := sys.FS().Open(side)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sys.FS().Create("idx-text-" + side)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			w.SetPartition(b.Partition)
			for _, rec := range b.Records() {
				w.WriteRecord(rec)
			}
		}
		w.SetIndex(f.Index)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if tag(sys, "idx-text-a") != dfs.FrameText {
		t.Fatal("a region file written as text is marked")
	}
	if raw, _ := join(sys, "idx-text-a", "idx-text-b"); !slices.Equal(raw, wantRaw) {
		t.Error("the indexed join of text copies writes a different output file")
	}
	wantRange := rangeSet(t, sys, "a", query)
	for _, c := range []struct {
		sys  *core.System
		file string
	}{{sys, "idx-text-a"}, {sys, "heap-a"}, {sys, "text-a"}} {
		if got := rangeSet(t, c.sys, c.file, query); !slices.Equal(got, wantRange) {
			t.Errorf("range over %s: %d regions, want %d", c.file, len(got), len(wantRange))
		}
	}

	for _, replication := range []int{0, 2} {
		sys := load()
		reg := obs.NewRegistry()
		m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Second, Replication: replication, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range []int{9511, 9512} {
			w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
		}
		for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("workers never registered")
			}
		}
		raw, _ := join(sys, "a", "b")
		m.Stop()
		if !slices.Equal(raw, wantRaw) {
			t.Errorf("replication %d: the pool's join output differs from the in-process one", replication)
		}
		if reg.Counter(mapreduce.MetricTasksDispatched) == 0 {
			t.Errorf("replication %d: no task reached a worker", replication)
		}
	}
}

// pairSet is a join's answer as sorted "left\tright" lines.
func pairSet(pairs []ops.JoinPair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.Left + "\t" + p.Right
	}
	slices.Sort(out)
	return out
}

// rangeSet is a region range query's answer as sorted records.
func rangeSet(t *testing.T, sys *core.System, file string, query geom.Rect) []string {
	t.Helper()
	regs, _, err := ops.RangeQueryRegions(sys, file, query)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(regs))
	for i, rg := range regs {
		out[i] = geomio.EncodeRegion(rg)
	}
	slices.Sort(out)
	return out
}
