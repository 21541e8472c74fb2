package geom_test

import (
	"slices"
	"testing"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
)

// BenchmarkClosestPair times the kernel on 14 000 clustered points, about
// one partition of the benchmark's job corpus, in input order.
func BenchmarkClosestPair(b *testing.B) {
	pts := datagen.Points(datagen.Clustered, 14000, geom.NewRect(0, 0, 1e6, 1e6), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.ClosestPair(pts)
	}
}

// BenchmarkClosestPairSorted times the kernel on what a closest-pair map
// task gets: one partition of about 7 000 clustered points, stored in
// canonical (X, then Y) order.
func BenchmarkClosestPairSorted(b *testing.B) {
	pts := datagen.Points(datagen.Clustered, 7000, geom.NewRect(0, 0, 1e6/7, 1e6/8), 1)
	slices.SortFunc(pts, geom.Point.Compare)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.ClosestPair(pts)
	}
}
