package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
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

// TestMasterFileRoundTrip: the global index a loader builds travels with
// its file as that very value. Every Open returns the index LoadPoints or
// LoadRegions returned, pointer-equal, and so does the generation
// CorruptBlock publishes in its place.
func TestMasterFileRoundTrip(t *testing.T) {
	area := geom.NewRect(0, 0, 500, 500)
	sys := New(Config{BlockSize: 4 << 10, Workers: 2, Seed: 1})
	pf, err := sys.LoadPoints("pts", datagen.Points(datagen.Gaussian, 2000, area, 7), sindex.STRPlus)
	if err != nil {
		t.Fatal(err)
	}
	polys := datagen.RandomPolygons(200, 5, 40, area, 9)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	rf, err := sys.LoadRegions("regs", regions, sindex.Grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []*IndexedFile{pf, rf} {
		if loaded.Index == nil || loaded.Index != loaded.File.Index {
			t.Fatalf("%s: the loader returned index %p, its file carries %p", loaded.Name, loaded.Index, loaded.File.Index)
		}
		f, err := sys.Open(loaded.Name)
		if err != nil {
			t.Fatal(err)
		}
		if f.File != loaded.File || f.Index != loaded.Index {
			t.Fatalf("%s: Open returned index %p of generation %d, the loader's is %p of %d",
				loaded.Name, f.Index, f.File.Epoch(), loaded.Index, loaded.File.Epoch())
		}
		if err := sys.FS().CorruptBlock(loaded.Name, 0); err != nil {
			t.Fatal(err)
		}
		if c, err := sys.Open(loaded.Name); err != nil || c.File == loaded.File || c.Index != loaded.Index {
			t.Fatalf("%s: the corrupted generation's index is %v (%v), want the loader's %p", loaded.Name, c, err, loaded.Index)
		}
	}
}

// cellSplits is the splitter as a walk over the index: one split per cell
// that has blocks, in cell order, with the cell's boundary and content
// MBR and its blocks in file order.
func cellSplits(f *dfs.File) []*mapreduce.Split {
	var splits []*mapreduce.Split
	for _, cell := range f.Index.Cells {
		s := &mapreduce.Split{Partition: cell.Key(), MBR: cell.Boundary, ContentMBR: cell.Content}
		for _, b := range f.Blocks {
			if b.Partition == cell.Key() {
				s.Blocks = append(s.Blocks, b)
			}
		}
		if len(s.Blocks) > 0 {
			splits = append(splits, s)
		}
	}
	return splits
}

// sameSplits fails unless got and want agree split for split on the
// partition, the MBR, the content MBR and the blocks in order.
func sameSplits(t *testing.T, what string, got, want []*mapreduce.Split) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d splits, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Partition != w.Partition || g.MBR != w.MBR || g.ContentMBR != w.ContentMBR || !slices.Equal(g.Blocks, w.Blocks) {
			t.Fatalf("%s: split %d is %s %v %v with %d blocks, want %s %v %v with %d",
				what, i, g.Partition, g.MBR, g.ContentMBR, len(g.Blocks), w.Partition, w.MBR, w.ContentMBR, len(w.Blocks))
		}
	}
}

// TestOneSplitter: IndexedFile.Splits and Cluster.MakeSplits are one
// splitter. For every technique, over points and regions, both give the
// index's cell walk; over a heap file both give one split per block with
// the world MBR and an empty content MBR.
func TestOneSplitter(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 4000, area, 5)
	polys := datagen.RandomPolygons(300, 5, 40, area, 9)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	sys := New(Config{BlockSize: 2 << 10, Workers: 4, Seed: 1})
	both := func(name string) ([]*mapreduce.Split, []*mapreduce.Split, *IndexedFile) {
		t.Helper()
		f, err := sys.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		made, err := sys.Cluster().MakeSplits([]string{name})
		if err != nil {
			t.Fatal(err)
		}
		return f.Splits(), made, f
	}
	for _, tech := range loadTechniques {
		if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.LoadRegions("regs", regions, tech); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"pts", "regs"} {
			splits, made, f := both(name)
			want := cellSplits(f.File)
			if len(want) < 2 {
				t.Fatalf("%v %s: %d partitions, too few to tell an order", tech, name, len(want))
			}
			sameSplits(t, fmt.Sprint(tech, " ", name, " Splits"), splits, want)
			sameSplits(t, fmt.Sprint(tech, " ", name, " MakeSplits"), made, want)
		}
	}
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	splits, made, f := both("heap")
	var want []*mapreduce.Split
	for _, b := range f.File.Blocks {
		want = append(want, &mapreduce.Split{MBR: geom.WorldRect(), ContentMBR: geom.EmptyRect(), Blocks: []*dfs.Block{b}})
	}
	if len(want) < 2 {
		t.Fatalf("heap file of %d blocks, too few to tell an order", len(want))
	}
	sameSplits(t, "heap Splits", splits, want)
	sameSplits(t, "heap MakeSplits", made, want)
}

// TestSplitsKeepUnindexedPartition: a block whose partition key has no
// cell in the file's index still yields a split, with the world MBR and
// an empty content MBR, from both IndexedFile.Splits and MakeSplits. The
// splitter never drops a block.
func TestSplitsKeepUnindexedPartition(t *testing.T) {
	sys := New(Config{BlockSize: 1 << 10, Workers: 2, Seed: 1})
	cell := sindex.Cell{ID: 0, Boundary: geom.NewRect(0, 0, 5, 5), Content: geom.NewRect(1, 1, 2, 2)}
	w, err := sys.FS().Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w.SetPartition("c0")
	w.WriteRecord("1,1")
	w.SetPartition("c7")
	w.WriteRecord("7,7")
	w.SetIndex(&sindex.GlobalIndex{Technique: sindex.Grid, Space: geom.NewRect(0, 0, 10, 10), Cells: []sindex.Cell{cell}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	want := []*mapreduce.Split{
		{Partition: "c0", MBR: cell.Boundary, ContentMBR: cell.Content, Blocks: f.File.Blocks[:1]},
		{Partition: "c7", MBR: geom.WorldRect(), ContentMBR: geom.EmptyRect(), Blocks: f.File.Blocks[1:]},
	}
	sameSplits(t, "Splits", f.Splits(), want)
	made, err := sys.Cluster().MakeSplits([]string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	sameSplits(t, "MakeSplits", made, want)
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
// stored as a point, its text measured and never formatted into a string,
// and each cell (or the heap file) written as one run whose blocks are
// views of it. The loaders allocate 42 and 17.5 B/point (95 and 90 when
// the writer appended point by point and trimmed each block at seal, 103
// and 90 before the cells were laid out in one flat int32 array, 170 and
// 122 when they stored text); per-point appends, a string per point, or a
// second per-cell slice break them.
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
	if indexed > 49 || heap > 20 {
		t.Errorf("LoadPoints allocates %.1f B/point (limit 49), LoadPointsHeap %.1f (limit 20)", indexed, heap)
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
