// Quickstart: stand up a simulated SpatialHadoop deployment, load a
// spatially indexed points file, and run the bread-and-butter queries —
// range query, k-nearest-neighbours and a skyline — while inspecting how
// the global index prunes work.
package main

import (
	"fmt"
	"log"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

func main() {
	// A "cluster" of 8 worker nodes with 64 KB blocks, so this small
	// dataset still splits into several spatial partitions.
	sys := core.New(core.Config{Workers: 8, BlockSize: 64 << 10, Seed: 42})

	// 100k points with city-like clustering in a 100km x 100km world.
	world := geom.NewRect(0, 0, 100_000, 100_000)
	points := datagen.Points(datagen.Clustered, 100_000, world, 42)

	// Load them as an STR+-partitioned file. The loader samples the data,
	// computes partition boundaries, routes every record, and stores the
	// global index with the file (File.Index).
	file, err := sys.LoadPoints("cities", points, sindex.STRPlus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d points into %d partitions (%d blocks)\n",
		file.File.Records, len(file.Index.Cells), len(file.File.Blocks))

	// Range query: the filter step reads only partitions overlapping the
	// query rectangle.
	query := geom.NewRect(20_000, 20_000, 30_000, 30_000)
	inRange, rep, err := ops.RangeQueryPoints(sys, "cities", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query %v: %d points, %d/%d partitions read\n",
		query, len(inRange), rep.Splits, rep.SplitsTotal)

	// k nearest neighbours of a location.
	q := geom.Pt(55_000, 47_000)
	nn, _, err := ops.KNN(sys, "cities", q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest neighbours of %v:\n", q)
	for i, p := range nn {
		fmt.Printf("  %d. %v  (%.0f m away)\n", i+1, p, p.Dist(q))
	}

	// Skyline (max-max): the SpatialHadoop filter prunes partitions that
	// are dominated by others before any record is read.
	sky, rep, err := cg.SkylineSHadoop(sys, "cities")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skyline has %d points; filter kept %d/%d partitions\n",
		len(sky), rep.Splits, rep.SplitsTotal)
}
