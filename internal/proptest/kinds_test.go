package proptest_test

import (
	"fmt"
	"reflect"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/proptest"
	"spatialhadoop/internal/sindex"
)

// sortedSprint renders each item with %v and sorts the renderings: the
// canonical form of an answer whose order is not part of the contract.
func sortedSprint[T any](items []T) string {
	recs := make([]string, len(items))
	for i, it := range items {
		recs[i] = fmt.Sprint(it)
	}
	return proptest.CanonStrings(recs)
}

// TestEveryKindRunsOnWorkers covers the operations the differential matrix
// has no oracle for: each runs in process and on a master with two
// goroutine workers at replication 2, and must give the same canonical
// answer and the same job counters — and must really have run there: the
// master handed the workers at least one assignment per map task.
func TestEveryKindRunsOnWorkers(t *testing.T) {
	pts := proptest.GenPoints(proptest.ShapeUniform, 160, 7)
	space := geom.RectOf(pts).Buffer(1)
	left, right := proptest.GenRegions(30, 7), proptest.GenRegions(30, 8)
	type answer struct {
		canon string
		rep   *mapreduce.Report
	}
	cases := []struct {
		name string
		run  func(sys *core.System) (string, *mapreduce.Report, error)
	}{
		{"skyline-os", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.SkylineOutputSensitive(sys, "pts", false)
			return proptest.CanonPoints(got), rep, err
		}},
		{"skyline-os reduceComm", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.SkylineOutputSensitive(sys, "pts", true)
			return proptest.CanonPoints(got), rep, err
		}},
		{"hull-enhanced", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.ConvexHullEnhanced(sys, "pts")
			return proptest.CanonPoints(got), rep, err
		}},
		{"union-enhanced", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.UnionEnhanced(sys, "regs")
			return proptest.CanonStrings(geomio.EncodeSegments(got)), rep, err
		}},
		{"voronoi", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, _, err := cg.VoronoiSHadoop(sys, "pts")
			return sortedSprint(got), rep, err
		}},
		{"voronoi-hadoop", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.VoronoiHadoop(sys, "pts", space)
			return sortedSprint(got), rep, err
		}},
		{"delaunay", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := cg.DelaunaySHadoop(sys, "pts")
			return sortedSprint(got), rep, err
		}},
		{"pbsm-join", func(sys *core.System) (string, *mapreduce.Report, error) {
			got, rep, err := ops.SpatialJoinPBSM(sys, "left", "right", 4)
			return proptest.CanonStrings(proptest.CanonJoinPairs(got)), rep, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answers []answer
			for _, remote := range []bool{false, true} {
				sys := proptest.NewSystem(proptest.DefaultWorkers)
				if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.LoadRegions("regs", left, sindex.Grid); err != nil {
					t.Fatal(err)
				}
				if err := sys.LoadRegionsHeap("left", left); err != nil {
					t.Fatal(err)
				}
				if err := sys.LoadRegionsHeap("right", right); err != nil {
					t.Fatal(err)
				}
				stop := func() {}
				if remote {
					stop = proptest.StartRemoteRuntime(sys, 2)
				}
				canon, rep, err := tc.run(sys)
				dispatched := sys.Metrics().Counter(mapreduce.MetricTasksDispatched)
				stop()
				if err != nil {
					t.Fatalf("remote=%v: %v", remote, err)
				}
				if rep.MapTasks < 2 {
					t.Fatalf("remote=%v: %d map task(s); the case tests no distribution", remote, rep.MapTasks)
				}
				if remote && dispatched < int64(rep.MapTasks) {
					t.Errorf("%d assignments dispatched for %d map tasks: the job did not run on the workers", dispatched, rep.MapTasks)
				}
				answers = append(answers, answer{canon, rep})
			}
			if answers[0].canon != answers[1].canon {
				t.Errorf("answer on workers differs from in process:\nin process: %q\nworkers:    %q", answers[0].canon, answers[1].canon)
			}
			if !reflect.DeepEqual(answers[0].rep.Counters, answers[1].rep.Counters) {
				t.Errorf("counters differ:\nin process: %v\nworkers:    %v", answers[0].rep.Counters, answers[1].rep.Counters)
			}
		})
	}
}
