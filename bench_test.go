// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation (backed by the same workloads as cmd/shbench, at reduced
// size), plus micro-benchmarks of the geometry kernel the operations rest
// on. Regenerate the full figures with cmd/shbench. System-level timings
// (load, range, kNN, skyline, shuffle, block decode) are not here: they
// are rows of the per-layer ledger that `bash benchmark/run.sh` prints.
package spatialhadoop_test

import (
	"io"
	"testing"

	"spatialhadoop/internal/bench"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/voronoi"
)

// benchCfg runs an experiment at a small scale with output discarded.
func benchCfg() bench.Config {
	return bench.Config{Scale: 0.05, Workers: 8, BlockSize: 64 << 10, Seed: 1, W: io.Discard}
}

// runExperiment benches one shbench experiment end to end.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Partitioning(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig20Distributions(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFig21Union(b *testing.B)         { runExperiment(b, "fig21") }
func BenchmarkFig22Voronoi(b *testing.B)       { runExperiment(b, "fig22") }
func BenchmarkFig23VoronoiSynth(b *testing.B)  { runExperiment(b, "fig23") }
func BenchmarkFig24Skyline(b *testing.B)       { runExperiment(b, "fig24") }
func BenchmarkFig25SkylineSynth(b *testing.B)  { runExperiment(b, "fig25") }
func BenchmarkFig26SkylineOS(b *testing.B)     { runExperiment(b, "fig26") }
func BenchmarkFig27Hull(b *testing.B)          { runExperiment(b, "fig27") }
func BenchmarkFig28HullSynth(b *testing.B)     { runExperiment(b, "fig28") }
func BenchmarkFig29Farthest(b *testing.B)      { runExperiment(b, "fig29") }
func BenchmarkFig30Closest(b *testing.B)       { runExperiment(b, "fig30") }
func BenchmarkFig31ClosestSynth(b *testing.B)  { runExperiment(b, "fig31") }
func BenchmarkSigmod14Ops(b *testing.B)        { runExperiment(b, "sigmod14") }

// ---- kernel micro-benchmarks ----

var world = geom.NewRect(0, 0, 1e6, 1e6)

func points(n int) []geom.Point {
	return datagen.Points(datagen.Uniform, n, world, 7)
}

func BenchmarkKernelConvexHull(b *testing.B) {
	pts := points(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.ConvexHull(pts)
	}
}

func BenchmarkKernelSkyline(b *testing.B) {
	pts := points(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.Skyline(pts)
	}
}

func BenchmarkKernelClosestPair(b *testing.B) {
	pts := points(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.ClosestPair(pts)
	}
}

func BenchmarkKernelDelaunay(b *testing.B) {
	pts := points(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		voronoi.NewDelaunay(pts)
	}
}

func BenchmarkKernelVoronoiSafety(b *testing.B) {
	vd := voronoi.New(points(20000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vd.SafeSitesFrontier(world)
	}
}

func BenchmarkKernelUnionArrangement(b *testing.B) {
	polys := datagen.Tessellation(20, 20, world, 3)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.UnionRegions(regions)
	}
}
