package core

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/sindex"
)

var loadTechniques = []sindex.Technique{
	sindex.Grid, sindex.STR, sindex.STRPlus, sindex.QuadTree,
	sindex.KDTree, sindex.ZCurve, sindex.Hilbert,
}

// TestLoadPointsConservation checks that indexing loses and duplicates no
// point records for any technique.
func TestLoadPointsConservation(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 5000, area, 3)
	want := geomio.EncodePoints(pts)
	sort.Strings(want)
	for _, tech := range loadTechniques {
		sys := New(Config{BlockSize: 8 << 10, Workers: 4, Seed: 1})
		f, err := sys.LoadPoints("pts", pts, tech)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.FS().ReadAll("pts")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%v: %d records, want %d", tech, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: record %d mismatch", tech, i)
			}
		}
		if f.Index == nil {
			t.Fatalf("%v: no index", tech)
		}
		if f.Index.Technique != tech {
			t.Fatalf("%v: technique round trip failed", tech)
		}
	}
}

// TestSplitsCoverAllBlocks checks the spatial file splitter assigns every
// block to exactly one split and carries the right metadata.
func TestSplitsCoverAllBlocks(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Uniform, 5000, area, 5)
	sys := New(Config{BlockSize: 4 << 10, Workers: 4, Seed: 1})
	f, err := sys.LoadPoints("pts", pts, sindex.Grid)
	if err != nil {
		t.Fatal(err)
	}
	splits := f.Splits()
	if len(splits) < 2 {
		t.Fatalf("expected several splits, got %d", len(splits))
	}
	nblocks := 0
	for _, s := range splits {
		nblocks += len(s.Blocks)
		// Every record must be inside the partition boundary (grid is
		// disjoint, points are never replicated).
		recPts, err := geomio.DecodePoints(s.Records())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range recPts {
			if !s.MBR.ContainsPoint(p) {
				t.Fatalf("point %v outside partition %v", p, s.MBR)
			}
			if !s.ContentMBR.ContainsPoint(p) {
				t.Fatalf("point %v outside content MBR %v", p, s.ContentMBR)
			}
		}
		if !s.MBR.ContainsRect(s.ContentMBR) {
			t.Fatalf("content MBR %v exceeds boundary %v", s.ContentMBR, s.MBR)
		}
	}
	if nblocks != len(f.File.Blocks) {
		t.Fatalf("splits cover %d blocks, file has %d", nblocks, len(f.File.Blocks))
	}
}

// TestMasterFileRoundTrip checks the index survives the master-file
// encoding when a file is reopened.
func TestMasterFileRoundTrip(t *testing.T) {
	pts := datagen.Points(datagen.Gaussian, 2000, geom.NewRect(0, 0, 500, 500), 7)
	sys := New(Config{BlockSize: 4 << 10, Workers: 2, Seed: 1})
	f1, err := sys.LoadPoints("pts", pts, sindex.STRPlus)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sys.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Index.Cells) != len(f2.Index.Cells) {
		t.Fatal("cells differ after reopen")
	}
	for i := range f1.Index.Cells {
		if f1.Index.Cells[i] != f2.Index.Cells[i] {
			t.Fatalf("cell %d differs after reopen", i)
		}
	}
}

// TestLoadRegionsReplication checks region loading with a disjoint
// technique replicates boundary-crossing records and the reader sees them.
func TestLoadRegionsReplication(t *testing.T) {
	area := geom.NewRect(0, 0, 400, 400)
	polys := datagen.RandomPolygons(200, 5, 40, area, 9)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	sys := New(Config{BlockSize: 4 << 10, Workers: 4, Seed: 1})
	f, err := sys.LoadRegions("regs", regions, sindex.QuadTree)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, b := range f.File.Blocks {
		total += int64(b.NumRecords())
	}
	if total <= int64(len(regions)) {
		t.Errorf("expected replication to add records: %d stored for %d input", total, len(regions))
	}
	// Distinct records must equal the input set.
	recs, _ := sys.FS().ReadAll("regs")
	distinct := map[string]bool{}
	for _, r := range recs {
		distinct[r] = true
	}
	if len(distinct) != len(regions) {
		t.Errorf("distinct records = %d, want %d", len(distinct), len(regions))
	}
}

func TestOpenMissingFile(t *testing.T) {
	sys := New(Config{})
	if _, err := sys.Open("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestReadBackPointsAndRegions(t *testing.T) {
	sys := New(Config{BlockSize: 1 << 10, Workers: 2, Seed: 1})
	pts := datagen.Points(datagen.Uniform, 500, geom.NewRect(0, 0, 10, 10), 13)
	if err := sys.LoadPointsHeap("p", pts); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadPoints("p")
	if err != nil || len(got) != len(pts) {
		t.Fatalf("ReadPoints: %d, %v", len(got), err)
	}
	regions := []geom.Region{geom.RegionOf(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)))}
	if err := sys.LoadRegionsHeap("r", regions); err != nil {
		t.Fatal(err)
	}
	regs, err := sys.ReadRegions("r")
	if err != nil || len(regs) != 1 || regs[0].VertexCount() != 3 {
		t.Fatalf("ReadRegions: %v, %v", regs, err)
	}
}

// TestDecodedViewsDieWithTheirBlock: a block's decoded views are memoised
// on the block, not in a table the System keeps, so replacing a file
// releases the old blocks with their records and decoded points.
func TestDecodedViewsDieWithTheirBlock(t *testing.T) {
	pts := datagen.Points(datagen.Uniform, 1000, geom.NewRect(0, 0, 100, 100), 11)
	sys := New(Config{BlockSize: 4 << 10, Workers: 2, Seed: 1})
	defer runtime.KeepAlive(sys) // the block must go while its System lives on
	collected := make(chan struct{})
	func() { // no reference to the old file survives this scope
		f, err := sys.LoadPoints("pts", pts, sindex.Grid)
		if err != nil {
			t.Fatal(err)
		}
		b := f.File.Blocks[0]
		if _, err := b.Points(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(b, func(*dfs.Block) { close(collected) })
	}()
	w, err := sys.FS().CreateOrReplace("pts")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord("1,1")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a replaced file's block with decoded points is still reachable")
}

// loadAllocBytes is what LoadPoints and LoadPointsHeap allocate per point
// on uniform points in a million-unit square — the measurement below.
func loadAllocBytes(t *testing.T, n int, load func(sys *System, pts []geom.Point)) float64 {
	t.Helper()
	pts := datagen.Points(datagen.Uniform, n, geom.NewRect(0, 0, 1e6, 1e6), 17)
	sys := New(Config{BlockSize: 64 << 10, Workers: 4, Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	load(sys, pts)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestLoadPointsAllocs pins the loaders' allocation per point: a point is
// stored as a point, its text measured and never formatted into a string.
// The loaders allocate 95 and 90 B/point (103 and 90 before the cells
// were laid out in one flat int32 array, 170 and 122 when they stored
// text); a string per point, or a second per-cell slice, breaks them.
func TestLoadPointsAllocs(t *testing.T) {
	const n = 40000
	indexed := loadAllocBytes(t, n, func(sys *System, pts []geom.Point) {
		if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
	})
	heap := loadAllocBytes(t, n, func(sys *System, pts []geom.Point) {
		if err := sys.LoadPointsHeap("pts", pts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadPoints %.1f B/point, LoadPointsHeap %.1f B/point", indexed, heap)
	if indexed > 135 || heap > 115 {
		t.Errorf("LoadPoints allocates %.1f B/point (limit 135), LoadPointsHeap %.1f (limit 115)", indexed, heap)
	}
}

// TestBlockBytesAreTheirText: the loaders cut blocks by geomio.PointLen, a
// length computed without spelling the point, so each block's Bytes must
// be its records' text, a newline each. The coordinates sit where 'g'
// switches notation and at its edges — the places a length that drifted
// from the text would show — in every pairing, across many small blocks.
func TestBlockBytesAreTheirText(t *testing.T) {
	coords := []float64{
		1e-5, 1e-4, 9.9999e-5, 999999.9999999999, 1e6, 123456.7, 1e21, 1e20,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		-1e-5, 0.1, 7, 1234567.5, 5e-324 * 3, 2.5e-310, 1e300, -1e-300,
	}
	var pts []geom.Point
	for _, x := range coords {
		for _, y := range coords {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	sys := New(Config{BlockSize: 256, Workers: 2, Seed: 1})
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadPoints("indexed", pts, sindex.STRPlus); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"heap", "indexed"} {
		f, err := sys.FS().Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Blocks) < 10 {
			t.Fatalf("%s: %d blocks, want many", name, len(f.Blocks))
		}
		var records int
		for _, b := range f.Blocks {
			var text int64
			for i := range b.NumRecords() {
				text += int64(len(b.Record(i))) + 1
			}
			if b.Bytes != text {
				t.Fatalf("%s: block %v has Bytes %d, its records are %d bytes of text", name, b.ID, b.Bytes, text)
			}
			records += b.NumRecords()
		}
		if records != len(pts) {
			t.Fatalf("%s: %d records, want %d", name, records, len(pts))
		}
	}
}
