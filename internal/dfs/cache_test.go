package dfs

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// writePoints stores n encoded points in one file and returns them.
func writePoints(t *testing.T, fs *FileSystem, name string, n int) []geom.Point {
	t.Helper()
	pts := make([]geom.Point, n)
	recs := make([]string, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(2 * i)}
		recs[i] = geomio.EncodePoint(pts[i])
	}
	if err := fs.WriteFile(name, recs); err != nil {
		t.Fatal(err)
	}
	return pts
}

// viewCase is one block and the view of it a test asks for.
type viewCase struct {
	name   string
	block  *Block
	recs   []string
	points bool // ask Points (and check Bounds too); else Bounds only
	stored bool // the view asked for is the writer's: shared, 0 allocations
}

// checkBlockViews: a block keeps no decoded view. Each case's view, asked
// by 8 racing callers, equals geomio's parse of its records; a stored view
// is the one array its writer kept, for no allocation, and any other is a
// fresh parse per call, sharing nothing between calls.
func checkBlockViews(t *testing.T, cases []viewCase) {
	t.Helper()
	for _, c := range cases {
		b := c.block
		var wantBounds []geom.Rect
		for _, r := range c.recs {
			rg, err := geomio.DecodeRegion(r)
			if err != nil {
				t.Fatal(err)
			}
			wantBounds = append(wantBounds, rg.Bounds())
		}
		view := func() (any, unsafe.Pointer, error) {
			if c.points {
				got, err := b.Points()
				return got, unsafe.Pointer(unsafe.SliceData(got)), err
			}
			got, err := b.Bounds()
			return got, unsafe.Pointer(unsafe.SliceData(got)), err
		}
		matches := func(got any) bool {
			if c.points {
				want, err := geomio.DecodePoints(c.recs)
				return err == nil && sameBits(got.([]geom.Point), want)
			}
			return sameRects(got.([]geom.Rect), wantBounds)
		}
		var arrays [8]unsafe.Pointer
		var wg sync.WaitGroup
		for i := range arrays {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, data, err := view(); err == nil && matches(got) {
					arrays[i] = data
				}
			}()
		}
		wg.Wait()
		for i, data := range arrays {
			switch {
			case data == nil:
				t.Fatalf("%s: call %d answered other than geomio's parse of its records", c.name, i)
			case c.stored && data != arrays[0]:
				t.Fatalf("%s: calls 0 and %d got different arrays; want the writer's", c.name, i)
			case !c.stored && i > 0 && data == arrays[i-1]:
				t.Fatalf("%s: calls %d and %d share an array; want a parse per call", c.name, i-1, i)
			}
		}
		allocs := testing.AllocsPerRun(5, func() { b.Bounds() })
		if c.points {
			allocs = testing.AllocsPerRun(5, func() { b.Points() })
		}
		if c.stored != (allocs == 0) {
			t.Errorf("%s: a call allocates %v times", c.name, allocs)
		}
		if c.points {
			if got, err := b.Bounds(); err != nil || !sameRects(got, wantBounds) {
				t.Errorf("%s: Bounds = %v, want each point's rect", c.name, err)
			}
		}
	}
}

// TestBlockPointsCached: the only points a block keeps are its writer's. A
// text block — written by WriteRecord, or built outside a file as a worker
// opens a text frame — parses its records on every Points call; a column
// block returns the points WritePoints stored, the same slice every time.
func TestBlockPointsCached(t *testing.T) {
	pts := awkwardPoints(7, 300)
	ptRecs := geomio.EncodePoints(pts)
	checkBlockViews(t, []viewCase{
		{"text points", textBlock(t, ptRecs), ptRecs, true, false},
		{"text points outside a file", NewBlockFromRecords("p", ptRecs), ptRecs, true, false},
		{"column points", pointBlock(t, pts), ptRecs, true, true},
	})
}

// TestBlockBoundsCachedAndInvalidated: the only rects a block keeps are
// its writer's. A text block parses its regions on every Bounds call, and
// malformed text errors on every call; a region-marked block returns the
// MBRs WriteRegions stored. Replacing the file gives the new block the new
// writer's rects and leaves a held old block its own.
func TestBlockBoundsCachedAndInvalidated(t *testing.T) {
	regs := awkwardRegions(8, 120)
	regRecs := make([]string, len(regs))
	for i, rg := range regs {
		regRecs[i] = geomio.EncodeRegion(rg)
	}
	regionBlock := oneBlock(t, func(w *Writer) {
		rects := make([]geom.Rect, len(regs))
		for i, rg := range regs {
			rects[i] = rg.Bounds()
		}
		w.WriteRegions(slices.Clone(regRecs), rects)
	})
	checkBlockViews(t, []viewCase{
		{"text regions", textBlock(t, regRecs), regRecs, false, false},
		{"marked regions", regionBlock, regRecs, false, true},
	})

	for name, b := range map[string]*Block{"point": textBlock(t, []string{"not-a-point"}), "region": textBlock(t, []string{"0,0 x,1"})} {
		for i := 0; i < 2; i++ {
			if _, err := b.Bounds(); err == nil {
				t.Fatalf("%s: call %d: Bounds of a malformed record did not error", name, i)
			}
		}
	}

	fs := New(Config{BlockSize: 1 << 30, DataNodes: 1})
	write := func(regs []geom.Region) *Block {
		w, err := fs.CreateOrReplace("r")
		if err != nil {
			t.Fatal(err)
		}
		recs, rects := make([]string, len(regs)), make([]geom.Rect, len(regs))
		for i, rg := range regs {
			recs[i], rects[i] = geomio.EncodeRegion(rg), rg.Bounds()
		}
		w.WriteRegions(recs, rects)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("r")
		if err != nil || len(f.Blocks) != 1 {
			t.Fatalf("Open = %v, %v; want one block", f, err)
		}
		return f.Blocks[0]
	}
	mbrs := func(regs []geom.Region) []geom.Rect {
		var out []geom.Rect
		for _, rg := range regs {
			out = append(out, rg.Bounds())
		}
		return out
	}
	old := write(regs[:10])
	replaced := write(regs[10:25])
	if got, err := replaced.Bounds(); err != nil || !sameRects(got, mbrs(regs[10:25])) {
		t.Errorf("replaced block: Bounds = %v, %v; want the new regions' MBRs", got, err)
	}
	if got, err := old.Bounds(); err != nil || !sameRects(got, mbrs(regs[:10])) {
		t.Errorf("held old block: Bounds = %v, %v; want its own regions' MBRs", got, err)
	}
}

// TestBlockPointsInvalidatedOnWrite: no block is read while it is
// written. Until Close the file cannot be opened; after it every block
// decodes all of its records.
func TestBlockPointsInvalidatedOnWrite(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 2})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	var want []geom.Point
	for i := 0; i < 40; i++ {
		want = append(want, geom.Pt(float64(i), float64(i)))
		w.WriteRecord(geomio.EncodePoint(want[i]))
		if _, err := fs.Open("pts"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open after %d records, before Close = %v, want ErrNotFound", i+1, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) < 2 {
		t.Fatalf("blocks = %d, want several", len(f.Blocks))
	}
	var got []geom.Point
	for _, b := range f.Blocks {
		pts, err := b.Points()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != b.NumRecords() {
			t.Fatalf("block %d decodes %d of its %d records", b.ID, len(pts), b.NumRecords())
		}
		got = append(got, pts...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

func TestCreateOrReplaceDropsDecodedPoints(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	writePoints(t, fs, "out", 10)
	f, _ := fs.Open("out")
	old, err := f.Blocks[0].Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 10 {
		t.Fatalf("decoded %d points, want 10", len(old))
	}

	// Replace the file with different content, as every job output commit
	// does. A reader opening the new file must see only the new points.
	w, err := fs.CreateOrReplace("out")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(geomio.EncodePoint(geom.Pt(99, 99)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	nf, err := fs.Open("out")
	if err != nil {
		t.Fatal(err)
	}
	var got []geom.Point
	for _, b := range nf.Blocks {
		pts, err := b.Points()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pts...)
	}
	if len(got) != 1 || got[0] != geom.Pt(99, 99) {
		t.Fatalf("replaced file decodes to %v, want [{99 99}] (stale decoded points)", got)
	}
}

func TestBlockPointsError(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	if err := fs.WriteFile("bad", []string{"not-a-point"}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("bad")
	if _, err := f.Blocks[0].Points(); err == nil {
		t.Fatal("Points on malformed records did not error")
	}
	// Nothing is kept, the error neither: the second call parses again.
	if _, err := f.Blocks[0].Points(); err == nil {
		t.Fatal("a second Points of malformed records did not error")
	}
}

// BenchmarkBlockPoints times Points of a 4096-point block: a text block
// parses on every call, a column block hands out its data.
func BenchmarkBlockPoints(b *testing.B) {
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 1.25, Y: float64(i) * 3.5}
	}
	for name, blk := range map[string]*Block{
		"text":   NewBlockFromRecords("", geomio.EncodePoints(pts)),
		"column": pointBlock(b, pts),
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blk.Points(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColumnRecordsKeepNothing: a point block formats its text for
// whoever asks and keeps none of it. After two ReadAlls, a Bounds and a
// text frame of each block of a file written through WritePoints, no block
// holds text or rects, the two reads share no memory, and both are the
// records a text write of the same points stores.
func TestColumnRecordsKeepNothing(t *testing.T) {
	pts := awkwardPoints(6, 600)
	recs := geomio.EncodePoints(pts)
	fs := New(Config{BlockSize: 1 << 10, DataNodes: 3})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	w.WritePoints(pts, pointLens(pts))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
	want, err := fs.ReadAll("text")
	if err != nil || !slices.Equal(want, recs) {
		t.Fatalf("the text write reads back as other records (%v)", err)
	}
	first, err1 := fs.ReadAll("pts")
	second, err2 := fs.ReadAll("pts")
	if err1 != nil || err2 != nil || !slices.Equal(first, want) || !slices.Equal(second, want) {
		t.Fatalf("ReadAll of the point file differs from the text write's records (%v, %v)", err1, err2)
	}
	if unsafe.StringData(first[0]) == unsafe.StringData(second[0]) {
		t.Fatal("two reads of a point file share their text")
	}
	f, _ := fs.Open("pts")
	if len(f.Blocks) < 3 {
		t.Fatalf("%d blocks, want several", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if _, err := b.Bounds(); err != nil {
			t.Fatal(err)
		}
		EncodeBlockFrame(b)
		if !b.column || b.records != nil || b.rects != nil {
			t.Fatalf("block %d holds text or rects after it was read", i)
		}
	}
}
