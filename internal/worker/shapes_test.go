package worker

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// TestReplicaFrameShapes: which shape a replica takes is decided by what
// its block is. After a range job over a LoadPoints file, a kNN job over a
// LoadPointsHeap file and a join of two region files on a replicating
// pool, every replica of a point block on every worker's disk is a column
// frame and every replica of a region block — and of the range job's own
// output, which a second job reads as input — a text frame; and the jobs
// answer as the in-process cluster does.
func TestReplicaFrameShapes(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	query, q, k := geom.NewRect(100, 100, 800, 700), geom.Pt(400, 600), 9
	load := func() *core.System {
		sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 5})
		if _, err := sys.LoadPoints("pts", datagen.Points(datagen.Clustered, 1500, area, 1), sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPointsHeap("heap", datagen.Points(datagen.Uniform, 700, area, 2)); err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"a", "b"} {
			pgs := datagen.Tessellation(6-i, 6-i, area, int64(3+i))
			regs := make([]geom.Region, len(pgs))
			for j, pg := range pgs {
				regs[j] = geom.RegionOf(pg)
			}
			if _, err := sys.LoadRegions(name, regs, sindex.STR); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	// run returns each job's raw output; the second range job reads the
	// first one's output file.
	run := func(sys *core.System) (out [][]string) {
		for _, job := range []func() (*mapreduce.Report, error){
			func() (*mapreduce.Report, error) {
				_, rep, err := ops.RangeQueryPoints(sys, "pts", query)
				return rep, err
			},
			func() (*mapreduce.Report, error) {
				_, rep, err := ops.RangeQueryPoints(sys, "pts.range.out", query)
				return rep, err
			},
			func() (*mapreduce.Report, error) { _, rep, err := ops.KNN(sys, "heap", q, k); return rep, err },
			func() (*mapreduce.Report, error) {
				_, rep, err := ops.SpatialJoinIndexed(sys, "a", "b")
				return rep, err
			},
		} {
			rep, err := job()
			if err != nil {
				t.Fatal(err)
			}
			recs, err := sys.FS().ReadAll(rep.OutputFile)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, recs)
		}
		return out
	}
	want := run(load())

	sys := load()
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Second, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	var dirs []string
	for _, pid := range []int{9501, 9502} {
		w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		dirs = append(dirs, w.Dir())
	}
	for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
	}
	got := run(sys)
	for i := range want {
		if len(want[i]) == 0 || len(got[i]) != len(want[i]) {
			t.Fatalf("job %d: %d records on the pool, %d in process (want some)", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("job %d, record %d: %q on the pool, %q in process", i, j, got[i][j], want[i][j])
			}
		}
	}

	for file, shape := range map[string]byte{
		"pts": dfs.FrameColumn, "heap": dfs.FrameColumn,
		"a": dfs.FrameText, "b": dfs.FrameText, "pts.range.out": dfs.FrameText,
	} {
		f, err := sys.FS().Open(file)
		if err != nil {
			t.Fatal(err)
		}
		replicas := 0
		for _, b := range f.Blocks {
			held := 0
			for _, dir := range dirs {
				frame, err := os.ReadFile(filepath.Join(dir, "replica", fmt.Sprintf("b%d", b.ID)))
				if err != nil {
					continue // placed elsewhere, or pruned before any job needed it
				}
				held++
				payload, err := dfs.UnsealShard(frame)
				if err != nil {
					t.Fatalf("%s block %d in %s: %v", file, b.ID, dir, err)
				}
				if payload[0] != shape {
					t.Errorf("%s block %d in %s is a %q frame, want %q", file, b.ID, dir, payload[0], shape)
				}
				// A column is its header and 16 bytes a point, well under the text.
				if shape == dfs.FrameColumn && (len(payload) > 32+16*b.NumRecords() || int64(len(payload)) >= b.Bytes) {
					t.Errorf("%s block %d: column payload of %d bytes for %d points, %d bytes of text", file, b.ID, len(payload), b.NumRecords(), b.Bytes)
				}
				opened, err := dfs.DecodeBlockFrame(frame)
				if err != nil || opened.NumRecords() != b.NumRecords() || opened.Bytes != b.Bytes {
					t.Fatalf("%s block %d in %s: opened %v, %v", file, b.ID, dir, opened, err)
				}
				for i, rec := range b.Records() {
					if opened.Record(i) != rec {
						t.Fatalf("%s block %d in %s: record %d = %q, want %q", file, b.ID, dir, i, opened.Record(i), rec)
					}
				}
			}
			if file == "heap" && held != len(dirs) {
				t.Errorf("heap block %d has %d replicas, want one per worker at replication 2", b.ID, held)
			}
			replicas += held
		}
		if replicas == 0 {
			t.Errorf("%s: no replica of any of its %d blocks on any worker's disk", file, len(f.Blocks))
		}
	}
	// The job output looks like points and parses like points; it is text
	// because no WritePoint wrote it.
	recs, err := sys.FS().ReadAll("pts.range.out")
	if err != nil || len(recs) == 0 {
		t.Fatalf("range output: %d records, %v", len(recs), err)
	}
	if p, err := geomio.DecodePoint(recs[0]); err != nil || geomio.EncodePoint(p) != recs[0] {
		t.Fatalf("range output record %q is not a point in its one spelling (%v)", recs[0], err)
	}
}
