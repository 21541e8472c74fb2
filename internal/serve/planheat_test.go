package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// heatReport is /debug/partitions.
type heatReport struct {
	Files []sindex.FileHeat `json:"files"`
}

// planExplain is the part of an explain report the query plan fills.
type planExplain struct {
	Engine            string `json:"engine"`
	PartitionsTotal   int    `json:"partitions_total"`
	PartitionsScanned int    `json:"partitions_scanned"`
	PartitionsPruned  int    `json:"partitions_pruned"`
}

// engineRun is what one engine left behind after the query sequence,
// with the indexed file's splits and the heap file's block count.
type engineRun struct {
	explains   []planExplain
	rangeHeat  heatReport // after the range queries
	heat       heatReport // after the whole sequence
	splits     []*mapreduce.Split
	heapBlocks int
}

var (
	planRects = []geom.Rect{
		geom.NewRect(300, 300, 420, 380), geom.NewRect(0, 0, 600, 500),
		geom.NewRect(0, 0, 1000, 1000), geom.NewRect(900, 50, 990, 60),
	}
	planKNNs = []string{"point=500,500&k=25", "point=120,870&k=3", "point=-50,400&k=60"}
)

// runPlanSequence loads a fresh system (an STR-indexed and a heap copy of
// one point set), attaches a master with two serve workers, and sends one
// range/kNN sequence, then a plot of each file, through the given engine.
func runPlanSequence(t *testing.T, engine string) engineRun {
	t.Helper()
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	pts := datagen.Points(datagen.Clustered, 3000, geom.NewRect(0, 0, 1000, 1000), 5)
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	_, stop := startServeWorkers(t, sys, 2)
	defer stop()
	srv := serve.New(sys, serve.Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var run engineRun
	f, err := sys.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	run.splits = f.Splits()
	heap, err := sys.FS().Open("heap")
	if err != nil {
		t.Fatal(err)
	}
	run.heapBlocks = len(heap.Blocks)
	ask := func(path string) {
		var body struct {
			Explain planExplain `json:"explain"`
		}
		raw := getBody(t, ts.URL+path+"&explain=1&engine="+engine)
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		run.explains = append(run.explains, body.Explain)
	}
	heat := func() heatReport {
		var rep heatReport
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/debug/partitions")), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, file := range []string{"pts", "heap"} {
		for _, r := range planRects {
			ask(fmt.Sprintf("/rangequery?file=%s&rect=%g,%g,%g,%g", file, r.MinX, r.MinY, r.MaxX, r.MaxY))
		}
	}
	run.rangeHeat = heat()
	for _, file := range []string{"pts", "heap"} {
		for _, q := range planKNNs {
			ask("/knn?file=" + file + "&" + q)
		}
	}
	for _, file := range []string{"pts", "heap"} {
		getBody(t, ts.URL+"/plot?file="+file+"&width=32&height=32")
	}
	run.heat = heat()
	return run
}

// byPartition indexes a report's heat for file by partition key.
func byPartition(rep heatReport, file string) map[string]sindex.PartitionHeat {
	out := map[string]sindex.PartitionHeat{}
	for _, fh := range rep.Files {
		if fh.File == file {
			for _, p := range fh.Partitions {
				out[p.Partition] = p
			}
		}
	}
	return out
}

// TestPlanHeatAcrossEngines: the query plan alone keeps the partition heat
// and the explain report's partition fields, whichever engine drives it.
// One range/kNN sequence over an indexed and a heap file, sent through
// each engine, must leave:
//   - explain fields that add up: scanned + pruned = total, the heap file
//     searched whole by MapReduce, and every engine scanning what
//     MapReduce scans;
//   - after the range queries, per-partition heat that is the definitional
//     one (a scan per query whose rectangle reaches the partition's cover,
//     all its records read per scan, the points inside the rectangle
//     matched) and so the same for every engine;
//   - after kNN rounds and a plot of each file, pinned file totals, with
//     no heat for the heap file (its splits carry no partition key).
func TestPlanHeatAcrossEngines(t *testing.T) {
	engines := []string{serve.PlannerLocal, serve.PlannerMapReduce, serve.PlannerSharded}
	runs := map[string]engineRun{}
	for _, engine := range engines {
		runs[engine] = runPlanSequence(t, engine)
	}
	mr := runs[serve.PlannerMapReduce]
	nRange := 2 * len(planRects)

	for _, engine := range engines {
		run := runs[engine]
		for i, e := range run.explains {
			want := mr.explains[i]
			heap := i >= len(planRects) && i < nRange || i >= nRange+len(planKNNs)
			switch {
			case e.PartitionsScanned+e.PartitionsPruned != e.PartitionsTotal:
				t.Errorf("%s request %d: explain %+v: scanned + pruned != total", engine, i, e)
			case heap && (e.Engine != serve.PlannerMapReduce || e.PartitionsScanned != run.heapBlocks || e.PartitionsTotal != run.heapBlocks):
				t.Errorf("%s request %d on the heap file: explain %+v, want MapReduce over all %d blocks", engine, i, e, run.heapBlocks)
			case !heap && (e.Engine != engine || e.PartitionsTotal != len(run.splits)):
				t.Errorf("%s request %d: explain %+v, want engine %s over %d partitions", engine, i, e, engine, len(run.splits))
			case e.PartitionsTotal != want.PartitionsTotal || e.PartitionsScanned != want.PartitionsScanned:
				t.Errorf("%s request %d: explain %+v, MapReduce's %+v", engine, i, e, want)
			}
		}

		got := byPartition(run.rangeHeat, "pts")
		for _, sp := range run.splits {
			var want sindex.PartitionHeat
			pts, err := sp.Points()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range planRects {
				if !sp.Cover().Intersects(r) {
					want.Prunes++
					continue
				}
				want.Scans++
				want.Records += int64(len(pts))
				for _, p := range pts {
					if r.ContainsPoint(p) {
						want.Matches++
					}
				}
			}
			want.Partition = sp.Partition
			if got[sp.Partition] != want {
				t.Errorf("%s after the range queries: partition %+v, want %+v", engine, got[sp.Partition], want)
			}
		}
		if len(got) != len(run.splits) || len(run.rangeHeat.Files) != 1 {
			t.Errorf("%s after the range queries: heat for %d files, %d partitions of pts, want pts alone and all %d", engine, len(run.rangeHeat.Files), len(got), len(run.splits))
		}

		var total sindex.PartitionHeat
		for _, p := range byPartition(run.heat, "pts") {
			total.Scans += p.Scans
			total.Prunes += p.Prunes
			total.Records += p.Records
			total.Matches += p.Matches
		}
		if want := (sindex.PartitionHeat{Scans: 201, Prunes: 359, Records: 7773, Matches: 6810}); total != want || len(run.heat.Files) != 1 {
			t.Errorf("%s after the whole sequence: %d files, pts totals %+v, want pts alone at %+v", engine, len(run.heat.Files), total, want)
		}
	}
}
