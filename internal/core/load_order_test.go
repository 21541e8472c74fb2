package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/sindex"
)

// orderPoints is clustered points laced with what breaks a careless order:
// duplicates of earlier points, points on x = ±0 (which cmp.Compare ties
// but whose text differs, so the index tie-break shows) and, with nan,
// NaN coordinates. With nan, the grid and curve techniques build a single
// cell, hence the runs without.
func orderPoints(n int, seed int64, nan bool) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := datagen.Points(datagen.Clustered, n, geom.NewRect(-500, -500, 500, 500), seed)
	negZero := math.Copysign(0, -1)
	for i := range pts {
		switch rng.Intn(40) {
		case 0:
			if nan {
				pts[i].X = math.NaN()
			}
		case 1:
			if nan {
				pts[i].Y = math.NaN()
			}
		case 2:
			pts[i] = geom.Pt(negZero, float64(rng.Intn(4)))
		case 3:
			pts[i] = geom.Pt(0, float64(rng.Intn(4)))
		case 4, 5, 6:
			pts[i] = pts[rng.Intn(i+1)]
		}
	}
	return pts
}

// orderRegions is a tessellation plus random polygons, some touching
// x = ±0, with duplicates, so several regions share a MinX.
func orderRegions(seed int64) []geom.Region {
	area := geom.NewRect(-500, -500, 500, 500)
	polys := append(datagen.Tessellation(24, 24, area, seed), datagen.RandomPolygons(400, 6, 20, area, seed)...)
	polys = append(polys, geom.Poly(geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3)), geom.Poly(geom.Pt(math.Copysign(0, -1), 5), geom.Pt(4, 5), geom.Pt(0, 9)))
	rng := rand.New(rand.NewSource(seed))
	regions := make([]geom.Region, 0, len(polys)+len(polys)/10)
	for _, pg := range polys {
		regions = append(regions, geom.RegionOf(pg))
		if rng.Intn(10) == 0 {
			regions = append(regions, regions[rng.Intn(len(regions))])
		}
	}
	return regions
}

// inputOrderPoints is LoadPoints' partitioning written out the way the
// loader did before cells were sorted: the same sample, index and
// assignment, each cell's records in input order.
func inputOrderPoints(sys *System, pts []geom.Point, t sindex.Technique) (*sindex.GlobalIndex, [][]int) {
	var totalBytes int64
	for _, p := range pts {
		totalBytes += int64(len(geomio.EncodePoint(p))) + 1
	}
	space := geom.RectOf(pts)
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	gi := sindex.Build(t, sys.samplePoints(pts), space, sys.numCells(totalBytes))
	cells := make([][]int, len(gi.Cells))
	for i, p := range pts {
		c := gi.AssignPoint(p)
		cells[c] = append(cells[c], i)
		gi.Cells[c].Content = gi.Cells[c].Content.ExpandPoint(p)
	}
	return gi, cells
}

// inputOrderRegions is inputOrderPoints for LoadRegions.
func inputOrderRegions(sys *System, regions []geom.Region, t sindex.Technique) (*sindex.GlobalIndex, [][]int) {
	var totalBytes int64
	centers := make([]geom.Point, len(regions))
	space := geom.EmptyRect()
	for i, rg := range regions {
		totalBytes += int64(len(geomio.EncodeRegion(rg))) + 1
		centers[i] = rg.Bounds().Center()
		space = space.Union(rg.Bounds())
	}
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	gi := sindex.Build(t, sys.samplePoints(centers), space, sys.numCells(totalBytes))
	cells := make([][]int, len(gi.Cells))
	for i, rg := range regions {
		for _, c := range gi.AssignRect(rg.Bounds()) {
			cells[c] = append(cells[c], i)
			gi.Cells[c].Content = gi.Cells[c].Content.Union(rg.Bounds())
		}
	}
	return gi, cells
}

// loadCase is one loaded file, the system holding it, and what it must
// equal: the input-order partitioning (gi, cells), the records, how the
// reference writes record i, and the cell order (less, over record
// indices, without the index tie-break).
type loadCase struct {
	sys   *System
	f     *IndexedFile
	gi    *sindex.GlobalIndex
	cells [][]int
	recs  []string
	write func(w *dfs.Writer, i int)
	less  func(a, b int) bool
}

// check compares the loaded file with the input-order loop: the global
// index (sameIndex), Bytes and Records equal; each cell holds the loop's records,
// sorted by less with ties in input order, as one run of consecutive
// blocks; and the blocks and per-node bytes equal those the loop writes
// when each cell is first sorted serially. It returns the loop's file.
func (lc loadCase) check(t *testing.T) *dfs.File {
	t.Helper()
	f := lc.f.File
	if !sameIndex(f.Index, lc.gi) {
		t.Fatal("global index differs from the input-order loop's")
	}
	ref := New(Config{BlockSize: 2 << 10, Workers: 4, Seed: 1})
	w, err := ref.FS().Create("ref")
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes, wantRecords int64
	next := 0 // the block the next cell starts at
	for c, cell := range lc.cells {
		if len(cell) == 0 {
			continue
		}
		want := slices.Clone(cell)
		sort.SliceStable(want, func(i, j int) bool { return lc.less(want[i], want[j]) })
		var got []string
		key := lc.gi.Cells[c].Key()
		for ; next < len(f.Blocks) && f.Blocks[next].Partition == key; next++ {
			got = append(got, f.Blocks[next].Records()...)
		}
		if len(got) != len(want) {
			t.Fatalf("cell %s: %d records in its run of blocks, the input-order loop put %d there", key, len(got), len(want))
		}
		w.SetPartition(key)
		for k, i := range want {
			if got[k] != lc.recs[i] {
				t.Fatalf("cell %s: record %d is %q, want %q (input record %d)", key, k, got[k], lc.recs[i], i)
			}
			lc.write(w, i)
			wantBytes += int64(len(lc.recs[i])) + 1
			wantRecords++
		}
	}
	if next != len(f.Blocks) {
		t.Fatalf("%d blocks, %d of them in runs of their cells", len(f.Blocks), next)
	}
	if f.Bytes != wantBytes || f.Records != wantRecords {
		t.Fatalf("file holds %d bytes and %d records, the input-order loop %d and %d", f.Bytes, f.Records, wantBytes, wantRecords)
	}
	w.SetIndex(lc.gi)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := ref.FS().Open("ref")
	if err != nil {
		t.Fatal(err)
	}
	sameLayout(t, f, rf)
	if !slices.Equal(lc.sys.FS().NodeBytes(), ref.FS().NodeBytes()) {
		t.Fatalf("bytes per node %v, the input-order loop's %v", lc.sys.FS().NodeBytes(), ref.FS().NodeBytes())
	}
	return rf
}

// sameLayout fails unless a and b have the same blocks — each block's ID,
// node, partition, Bytes and records — and the same Bytes, Records and
// global index (sameIndex).
func sameLayout(t *testing.T, a, b *dfs.File) {
	t.Helper()
	if len(a.Blocks) != len(b.Blocks) || a.Bytes != b.Bytes || a.Records != b.Records || !sameIndex(a.Index, b.Index) {
		t.Fatalf("files differ: %d vs %d blocks, %d vs %d bytes, %d vs %d records, or the global index",
			len(a.Blocks), len(b.Blocks), a.Bytes, b.Bytes, a.Records, b.Records)
	}
	for i, x := range a.Blocks {
		y := b.Blocks[i]
		if x.ID != y.ID || x.Node != y.Node || x.Partition != y.Partition || x.Bytes != y.Bytes ||
			x.NumRecords() != y.NumRecords() || !slices.Equal(x.Records(), y.Records()) {
			t.Fatalf("block %d differs: %v/%d/%s/%d/%d vs %v/%d/%s/%d/%d or its records", i,
				x.ID, x.Node, x.Partition, x.Bytes, x.NumRecords(), y.ID, y.Node, y.Partition, y.Bytes, y.NumRecords())
		}
	}
}

// sameIndex reports whether a and b are the same global index field by
// field, the curve resolution included: floats compare by their bits, so
// −0 is not +0 and a NaN equals only its own payload.
func sameIndex(a, b *sindex.GlobalIndex) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameBits(reflect.ValueOf(*a), reflect.ValueOf(*b))
}

// sameBits is sameIndex's walk over one value; a kind it does not know
// panics, so a new field's type cannot slip past the comparison.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("sameBits: a %v field", a.Type()))
}

// sameBlocks is sameLayout, frame for frame.
func sameBlocks(t *testing.T, a, b *dfs.File) {
	t.Helper()
	sameLayout(t, a, b)
	for i, x := range a.Blocks {
		if !bytes.Equal(dfs.EncodeBlockFrame(x), dfs.EncodeBlockFrame(b.Blocks[i])) {
			t.Fatalf("block %d ships as a different frame", i)
		}
	}
}

// shipsAs fails unless every block of f ships in the frame shape tag.
func shipsAs(t *testing.T, f *dfs.File, tag byte) {
	t.Helper()
	for i, b := range f.Blocks {
		if payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); err != nil || payload[0] != tag {
			t.Fatalf("block %d ships as %q (%v), want %q", i, payload[:1], err, tag)
		}
	}
}

// pointLess is the point cell order: (X, then Y) as cmp.Compare orders
// them, NaN first.
func pointLess(pts []geom.Point) func(a, b int) bool {
	return func(a, b int) bool {
		if c := cmp.Compare(pts[a].X, pts[b].X); c != 0 {
			return c < 0
		}
		return cmp.Less(pts[a].Y, pts[b].Y)
	}
}

// TestLoadPointsWritesCellsInLocalOrder: for every technique, each point
// cell is the input-order loop's records in (X, Y) order, read across its
// blocks, and the file's layout is what that loop's text write lays out:
// the points are stored as a column, cut where their text is cut. The heap
// loader's file has the layout of its records written as text in input
// order.
func TestLoadPointsWritesCellsInLocalOrder(t *testing.T) {
	cfg := Config{BlockSize: 2 << 10, Workers: 4, Seed: 1}
	for _, nan := range []bool{false, true} {
		pts := orderPoints(6000, 3, nan)
		recs := geomio.EncodePoints(pts)
		t.Run(fmt.Sprintf("heap/nan=%v", nan), func(t *testing.T) {
			sys, ref := New(cfg), New(cfg)
			if err := sys.LoadPointsHeap("pts", pts); err != nil {
				t.Fatal(err)
			}
			if err := ref.FS().WriteFile("pts", recs); err != nil {
				t.Fatal(err)
			}
			f, _ := sys.FS().Open("pts")
			rf, _ := ref.FS().Open("pts")
			sameLayout(t, f, rf)
			shipsAs(t, f, dfs.FrameColumn)
			if !slices.Equal(sys.FS().NodeBytes(), ref.FS().NodeBytes()) {
				t.Fatalf("bytes per node %v, the text write's %v", sys.FS().NodeBytes(), ref.FS().NodeBytes())
			}
		})
		for _, tech := range loadTechniques {
			t.Run(fmt.Sprintf("%v/nan=%v", tech, nan), func(t *testing.T) {
				sys := New(cfg)
				f, err := sys.LoadPoints("pts", pts, tech)
				if err != nil {
					t.Fatal(err)
				}
				gi, cells := inputOrderPoints(New(cfg), pts, tech)
				lc := loadCase{sys: sys, f: f, gi: gi, cells: cells, recs: recs, less: pointLess(pts),
					write: func(w *dfs.Writer, i int) { w.WriteRecord(recs[i]) }}
				lc.check(t)
				shipsAs(t, f.File, dfs.FrameColumn)
				for _, sp := range f.Splits() {
					got, err := geomio.DecodePoints(sp.Records())
					if err != nil {
						t.Fatal(err)
					}
					if !slices.IsSortedFunc(got, func(a, b geom.Point) int {
						if c := cmp.Compare(a.X, b.X); c != 0 {
							return c
						}
						return cmp.Compare(a.Y, b.Y)
					}) {
						t.Fatalf("partition %s is not in cmp.Compare (X, Y) order across its %d blocks", sp.Partition, len(sp.Blocks))
					}
				}
			})
		}
	}
}

// TestLoadRegionsWritesCellsInLocalOrder: under Grid (replicating) and
// STR+, each region cell is the input-order loop's records in MBR MinX
// order, ties in input order.
func TestLoadRegionsWritesCellsInLocalOrder(t *testing.T) {
	regions := orderRegions(5)
	recs := make([]string, len(regions))
	bounds := make([]geom.Rect, len(regions))
	for i, rg := range regions {
		recs[i], bounds[i] = geomio.EncodeRegion(rg), rg.Bounds()
	}
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.STRPlus} {
		t.Run(tech.String(), func(t *testing.T) {
			sys := New(Config{BlockSize: 2 << 10, Workers: 4, Seed: 1})
			f, err := sys.LoadRegions("regs", regions, tech)
			if err != nil {
				t.Fatal(err)
			}
			gi, cells := inputOrderRegions(New(Config{BlockSize: 2 << 10, Workers: 4, Seed: 1}), regions, tech)
			lc := loadCase{sys: sys, f: f, gi: gi, cells: cells, recs: recs,
				less:  func(a, b int) bool { return cmp.Less(bounds[a].MinX, bounds[b].MinX) },
				write: func(w *dfs.Writer, i int) { w.WriteRegions(recs[i:i+1], bounds[i:i+1]) }}
			sameBlocks(t, f.File, lc.check(t))
			for _, sp := range f.Splits() {
				var minX []float64
				for _, b := range sp.Blocks {
					rects, err := b.Bounds()
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rects {
						minX = append(minX, r.MinX)
					}
				}
				if !slices.IsSorted(minX) {
					t.Fatalf("partition %s is not in MinX order across its %d blocks", sp.Partition, len(sp.Blocks))
				}
			}
		})
	}
}

// TestLoadIsTheSameAtAnyParallelism: the points and regions are measured,
// assigned and laid out by cell in chunks of loadChunk records, and the
// cells sorted, on up to GOMAXPROCS goroutines, by the indexed loaders and
// the heap loader; the file — records, blocks and global index — is
// identical at 1 and at 4, bytes and float bits alike. Besides the mixed input, the cases sit on
// the chunk boundary (k·loadChunk records and one either side), leave
// cells empty in some chunks (points in X order, so each chunk covers a
// band of X), and put every point in one cell spread over several chunks.
func TestLoadIsTheSameAtAnyParallelism(t *testing.T) {
	cfg := Config{BlockSize: 2 << 10, Workers: 4, Seed: 1}
	// wide keeps the chunk-boundary cases to tens of cells: assigning
	// thousands of regions to hundreds is what the time would go on.
	wide := Config{BlockSize: 32 << 10, Workers: 4, Seed: 1}
	tiles := orderRegions(9)
	for len(tiles) < 2*loadChunk+1 {
		tiles = append(tiles, tiles...)
	}
	banded := orderPoints(2*loadChunk+3, 17, true)
	slices.SortStableFunc(banded, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	cases := []struct {
		name    string
		pts     []geom.Point
		regions []geom.Region
		cfg     Config
	}{
		{"mixed", orderPoints(6000, 7, true), orderRegions(9), cfg},
		{"chunk-1", orderPoints(2*loadChunk-1, 21, true), tiles[:2*loadChunk-1], wide},
		{"chunk", orderPoints(2*loadChunk, 22, true), tiles[:2*loadChunk], wide},
		{"chunk+1", orderPoints(2*loadChunk+1, 23, true), tiles[:2*loadChunk+1], wide},
		{"banded", banded, orderRegions(9), cfg},
		{"one-cell", orderPoints(2*loadChunk+5, 24, false), orderRegions(9), Config{BlockSize: 64 << 20, Workers: 4, Seed: 1}},
	}
	for _, tc := range cases {
		load := func(procs int, tech sindex.Technique) (*System, *System, *System) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ps, rs, hs := New(tc.cfg), New(tc.cfg), New(tc.cfg)
			if _, err := ps.LoadPoints("f", tc.pts, tech); err != nil {
				t.Fatal(err)
			}
			if _, err := rs.LoadRegions("f", tc.regions, tech); err != nil {
				t.Fatal(err)
			}
			if err := hs.LoadPointsHeap("f", tc.pts); err != nil {
				t.Fatal(err)
			}
			return ps, rs, hs
		}
		for _, tech := range loadTechniques {
			p1, r1, h1 := load(1, tech)
			p4, r4, h4 := load(4, tech)
			for _, s := range [][2]*System{{p1, p4}, {r1, r4}, {h1, h4}} {
				a, errA := s[0].FS().ReadAll("f")
				b, errB := s[1].FS().ReadAll("f")
				if errA != nil || errB != nil || !slices.Equal(a, b) {
					t.Fatalf("%s/%v: ReadAll differs between GOMAXPROCS 1 and 4 (%v, %v)", tc.name, tech, errA, errB)
				}
				fa, _ := s[0].FS().Open("f")
				fb, _ := s[1].FS().Open("f")
				sameBlocks(t, fa, fb)
			}
			if tc.name == "one-cell" {
				f, _ := p1.FS().Open("f")
				for _, b := range f.Blocks {
					if b.Partition != f.Blocks[0].Partition {
						t.Fatalf("%v: the one-cell case wrote partitions %s and %s", tech, f.Blocks[0].Partition, b.Partition)
					}
				}
			}
		}
	}
}
