package worker

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// LoadPointsHeap file, an indexed join of two LoadRegions files, a PBSM
// join of a LoadRegionsHeap file with the same regions stored through
// WriteFile and a region range job, on a replicating pool: every replica
// of a point block on every worker's disk is a column frame — the range
// job's own output too, which a second job reads as input — every replica
// of a loaded region block a regions frame, and every replica of the
// WriteFile input a text frame; the jobs answer as the in-process cluster
// does; and the outputs take the shape of what their jobs selected —
// range matches and kNN candidates of points a column, range matches of
// regions regions — or text.
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
			if name == "a" {
				if err := sys.LoadRegionsHeap("heap-a", regs); err != nil {
					t.Fatal(err)
				}
				continue
			}
			recs := make([]string, len(regs))
			for j, rg := range regs {
				recs[j] = geomio.EncodeRegion(rg)
			}
			if err := sys.FS().WriteFile("text-b", recs); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	// run returns each job's raw output and output file; the second range
	// job reads the first one's output file.
	run := func(sys *core.System) (out [][]string, files []string) {
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
			func() (*mapreduce.Report, error) {
				_, rep, err := ops.SpatialJoinPBSM(sys, "heap-a", "text-b", 3)
				return rep, err
			},
			func() (*mapreduce.Report, error) {
				_, rep, err := ops.RangeQueryRegions(sys, "a", query)
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
			out, files = append(out, recs), append(files, rep.OutputFile)
		}
		return out, files
	}
	want, _ := run(load())

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
	got, outputs := run(sys)
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
		"a": dfs.FrameRegions, "b": dfs.FrameRegions, "heap-a": dfs.FrameRegions,
		"text-b": dfs.FrameText, "pts.range.out": dfs.FrameColumn,
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
				if shape == dfs.FrameRegions {
					want, _ := b.Bounds()
					if got, err := opened.Bounds(); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s block %d in %s: the replica's rects differ from the master's (%v)", file, b.ID, dir, err)
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
	// Each output is shaped by what its job selected, and a column output
	// formats, byte for byte, the records its job selected: those inside
	// the query, in split order, of the file it read.
	for i, shape := range []byte{dfs.FrameColumn, dfs.FrameColumn, dfs.FrameColumn, dfs.FrameText, dfs.FrameText, dfs.FrameRegions} {
		f, err := sys.FS().Open(outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			if payload, _ := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); payload[0] != shape {
				t.Errorf("job %d: output block %d is a %q frame, want %q", i, b.ID, payload[0], shape)
			}
		}
		if i >= 2 {
			continue // the two range outputs: the kNN one holds per-block candidates
		}
		in, err := sys.Open([]string{"pts", "pts.range.out"}[i])
		if err != nil {
			t.Fatal(err)
		}
		var matches []string
		for _, sp := range in.Splits() {
			for _, b := range sp.Blocks {
				for _, rec := range b.Records() {
					if p, err := geomio.DecodePoint(rec); err == nil && query.ContainsPoint(p) {
						matches = append(matches, rec)
					}
				}
			}
		}
		var recs []string
		for _, b := range f.Blocks {
			recs = append(recs, b.Records()...)
		}
		if !slices.Equal(recs, matches) {
			t.Errorf("job %d: output column formats %d records, not the %d it selected", i, len(recs), len(matches))
		}
	}
}
