// Remote-engine property tests: the distributed runtime (in-test master,
// replicated data plane, goroutine workers) is held to the same
// brute-force oracles as the in-process scheduler, to byte identity
// against the in-process answers, and to worker-count independence.
package proptest_test

import (
	"fmt"
	"strings"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/proptest"
	"spatialhadoop/internal/sindex"
)

// remoteOps is every job-running entry of CheckOrder (the serve-* checks
// drive the serving layer, not jobs): a job is a registered kind plus its
// configuration, so all of them execute on the workers.
var remoteOps = func() []string {
	var ops []string
	for _, op := range proptest.CheckOrder {
		if !strings.HasPrefix(op, "serve-") {
			ops = append(ops, op)
		}
	}
	return ops
}()

// TestEngineRemoteDifferential: the full differential checks — the same
// oracles the in-process matrix runs against — under the remote engine,
// across seeds and techniques.
func TestEngineRemoteDifferential(t *testing.T) {
	// No t.Parallel here: CloseEngines is process-global, so concurrent
	// remote-engine checks would tear down each other's runtimes
	// mid-check (and the jobs would silently run in process).
	for _, op := range remoteOps {
		op := op
		t.Run(op, func(t *testing.T) {
			for _, tech := range []sindex.Technique{sindex.STRPlus, sindex.Grid} {
				for seed := int64(1); seed <= 3; seed++ {
					c := proptest.GenCase(op, tech, proptest.Shapes[int(seed)%len(proptest.Shapes)], seed)
					c.Engine = proptest.EngineRemote
					if f := proptest.RunCase(c); f != nil {
						t.Fatalf("remote %s × %v seed %d:\n%s", op, tech, seed, f.Report())
					}
				}
			}
		})
	}
}

// canonCase runs one case's workload on its own engine and returns the
// canonical byte encoding of every answer, concatenated. The case's
// technique must be disjoint (ann and closest-pair refuse otherwise).
func canonCase(t *testing.T, c proptest.Case) string {
	t.Helper()
	defer proptest.CloseEngines()
	sys := c.System()
	var outs []string
	add := func(out string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", c.Op, err)
		}
		outs = append(outs, out)
	}
	load := func(name string, regions []geom.Region) {
		t.Helper()
		if _, err := sys.LoadRegions(name, regions, c.Tech); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pts != nil {
		if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
			t.Fatal(err)
		}
	}
	switch c.Op {
	case "range":
		for _, q := range c.Queries {
			got, _, err := ops.RangeQueryPoints(sys, "pts", q)
			add(proptest.CanonPoints(got), err)
		}
	case "range-regions":
		load("regs", c.Left)
		for _, q := range c.Queries {
			got, _, err := ops.RangeQueryRegions(sys, "regs", q)
			recs := make([]string, len(got))
			for i, rg := range got {
				recs[i] = geomio.EncodeRegion(rg)
			}
			add(proptest.CanonStrings(recs), err)
		}
	case "knn":
		for _, kq := range c.KNNs {
			got, _, err := ops.KNN(sys, "pts", kq.Q, kq.K)
			add(proptest.CanonPoints(got), err)
		}
	case "join":
		load("left", c.Left)
		load("right", c.Right)
		got, _, err := ops.SpatialJoinIndexed(sys, "left", "right")
		add(proptest.CanonStrings(proptest.CanonJoinPairs(got)), err)
	case "ann":
		got, _, err := ops.AllNearestNeighbors(sys, "pts")
		add(fmt.Sprint(got), err)
	case "plot":
		for _, extent := range c.Extents {
			img, _, err := ops.Plot(sys, "pts", ops.PlotConfig{Width: c.Width, Height: c.Height, Extent: extent})
			if err != nil {
				t.Fatal(err)
			}
			add(string(img.Pix), nil)
		}
	case "skyline":
		got, _, err := cg.SkylineSHadoop(sys, "pts")
		add(proptest.CanonPoints(got), err)
	case "hull":
		got, _, err := cg.ConvexHullSHadoop(sys, "pts")
		add(proptest.CanonPoints(got), err)
	case "closest-pair":
		got, _, err := cg.ClosestPairSHadoop(sys, "pts")
		add(fmt.Sprint(got), err)
	case "farthest-pair":
		got, _, err := cg.FarthestPairSHadoop(sys, "pts")
		add(fmt.Sprint(got), err)
	case "union":
		load("regs", c.Left)
		got, _, err := cg.UnionSHadoop(sys, "regs")
		add(geomio.EncodeRegion(got), err)
	default:
		t.Fatalf("canonCase: unsupported op %s", c.Op)
	}
	if c.Engine == proptest.EngineRemote && sys.Metrics().Counter(mapreduce.MetricTasksDispatched) == 0 {
		t.Fatalf("%s under the remote engine dispatched no task to a worker", c.Op)
	}
	return strings.Join(outs, "\x00")
}

// TestEngineRemoteMatchesInProcess: identical cases on the two engines
// must produce byte-identical answers.
func TestEngineRemoteMatchesInProcess(t *testing.T) {
	// Sequential for the same CloseEngines reason as the differential.
	for _, op := range remoteOps {
		op := op
		t.Run(op, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				c := proptest.GenCase(op, sindex.STRPlus, proptest.Shapes[int(seed)%len(proptest.Shapes)], seed)
				inproc := canonCase(t, c)
				c.Engine = proptest.EngineRemote
				remote := canonCase(t, c)
				if inproc != remote {
					t.Fatalf("%s seed %d: remote answer diverged from in-process", op, seed)
				}
			}
		})
	}
}

// TestEngineRemoteWorkerIndependence: the answer must not depend on the
// remote pool size — 1, 2 and 3 workers give the same bytes.
func TestEngineRemoteWorkerIndependence(t *testing.T) {
	// Sequential for the same CloseEngines reason as the differential.
	for _, op := range remoteOps {
		op := op
		t.Run(op, func(t *testing.T) {
			c := proptest.GenCase(op, sindex.Grid, proptest.ShapeUniform, 41)
			c.Engine = proptest.EngineRemote
			msg := proptest.InvariantRemoteWorkerIndependent(op, func(n int) (string, error) {
				c.RemoteWorkers = n
				return canonCase(t, c), nil
			})
			if msg != "" {
				t.Error(msg)
			}
		})
	}
}
