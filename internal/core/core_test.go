package core

import (
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

// TestPersistedSystemRoundTrip saves a system with an indexed file to disk
// and reloads it; the reopened file must keep its index and records.
func TestPersistedSystemRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pts := datagen.Points(datagen.Clustered, 2000, geom.NewRect(0, 0, 1000, 1000), 17)
	sys := New(Config{BlockSize: 8 << 10, Workers: 4, Seed: 1})
	f1, err := sys.LoadPoints("pts", pts, sindex.QuadTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FS().SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	fs2, err := dfs.LoadDir(dir, dfs.Config{BlockSize: 8 << 10, DataNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewWithFS(Config{BlockSize: 8 << 10, Workers: 4, Seed: 1}, fs2)
	f2, err := sys2.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Index == nil || len(f2.Index.Cells) != len(f1.Index.Cells) {
		t.Fatal("index lost through persistence")
	}
	got, err := sys2.ReadPoints("pts")
	if err != nil || len(got) != len(pts) {
		t.Fatalf("reloaded %d points, want %d (%v)", len(got), len(pts), err)
	}
	if len(f2.Splits()) != len(f1.Splits()) {
		t.Errorf("splits differ after reload: %d vs %d", len(f2.Splits()), len(f1.Splits()))
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

// TestLoadPointsAllocs pins the loaders' allocation per point: the point
// mark costs the loader nothing — one per-cell slice of records, as before
// the mark existed — and each record is one allocation. The limits are the
// loaders' cost before blocks had a point mark (226 and 138 B/point) less
// what the one-allocation EncodePoint saved; a second per-cell slice, or
// an EncodePoint back at three allocations, breaks them.
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
	if indexed > 215 || heap > 135 {
		t.Errorf("LoadPoints allocates %.1f B/point (limit 215), LoadPointsHeap %.1f (limit 135)", indexed, heap)
	}
}
