// External test package: the remote half drives goroutine workers, and
// internal/worker imports ops through the serving layer.
package ops_test

import (
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// TestJobReportsCarryPlanCounts: partition heat is recorded by the query
// plan alone, so no range or kNN job report — in process or on a worker
// pool — holds a per-partition counter. What the plan needs from a job is
// the report's per-map-task selection count: one per searched split, and
// summing to the records the job wrote, over an indexed and a heap file.
func TestJobReportsCarryPlanCounts(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 2000, area, 3)
	check := func(what string, rep *mapreduce.Report) {
		t.Helper()
		for name := range rep.Counters {
			if strings.HasPrefix(name, "ops.part.") {
				t.Errorf("%s: report holds partition counter %q", what, name)
			}
		}
		var maps, sum int64
		for i, row := range rep.Tasks {
			if row.Phase == obs.PhaseMap && row.Task == i {
				maps++
				sum += row.Selected
			}
		}
		if maps != int64(rep.MapTasks) || rep.MapTasks != rep.Splits {
			t.Errorf("%s: %d selection counts for %d map tasks over %d splits", what, maps, rep.MapTasks, rep.Splits)
		}
		if sum != rep.OutputCount {
			t.Errorf("%s: selection counts sum to %d, output holds %d", what, sum, rep.OutputCount)
		}
	}
	run := func(runner string, sys *core.System) {
		for _, file := range []string{"pts", "heap"} {
			for _, q := range []geom.Rect{geom.NewRect(100, 100, 400, 350), area} {
				got, rep, err := ops.RangeQueryPointsTo(sys, file, q, file+".range")
				if err != nil {
					t.Fatal(err)
				}
				if rep.OutputCount != int64(len(got)) || len(got) == 0 {
					t.Errorf("%s %s range %v: %d points, report says %d", runner, file, q, len(got), rep.OutputCount)
				}
				check(runner+" "+file+" range", rep)
			}
			for _, k := range []int{1, 40} {
				_, rep, err := ops.KNNTo(sys, file, geom.Pt(500, 500), k, file+".knn")
				if err != nil {
					t.Fatal(err)
				}
				check(runner+" "+file+" knn", rep)
			}
		}
	}
	load := func() *core.System {
		sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
		if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	run("in-process", load())

	sys := load()
	reg := obs.NewRegistry()
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for _, pid := range []int{9531, 9532} {
		w, err := worker.Start(worker.Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
	}
	for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
	}
	run("remote", sys)
	if reg.Counter(mapreduce.MetricTasksDispatched) == 0 {
		t.Error("remote: no task reached a worker")
	}
}
