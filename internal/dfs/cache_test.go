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

func TestBlockPointsCached(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	want := writePoints(t, fs, "pts", 50)
	f, err := fs.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(f.Blocks))
	}
	b := f.Blocks[0]
	first, err := b.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(first), len(want))
	}
	for i, p := range first {
		if p != want[i] {
			t.Fatalf("point %d = %v, want %v", i, p, want[i])
		}
	}
	second, err := b.Points()
	if err != nil {
		t.Fatal(err)
	}
	// The cache must serve the identical backing array, not a re-parse.
	if &first[0] != &second[0] {
		t.Error("second Points() call re-decoded instead of hitting the cache")
	}
}

// TestBlockPointsInvalidatedOnWrite: no decoded view can go stale,
// because no block is decoded while it is written. Until Close the file
// cannot be opened; after it every block decodes all of its records.
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
	// The error is cached too: the second call must also report it.
	if _, err := f.Blocks[0].Points(); err == nil {
		t.Fatal("cached Points error was lost")
	}
}

// TestBlockBoundsCachedAndInvalidated: an unmarked block's MBRs are parsed
// once for the block's lifetime, and later calls allocate nothing; the only
// way its records change is a replacement, whose blocks are new and parse
// their own.
func TestBlockBoundsCachedAndInvalidated(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	if err := fs.WriteFile("f", []string{"0,0 2,1", "5,5"}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("f")
	b := f.Blocks[0]
	want := []geom.Rect{geom.NewRect(0, 0, 2, 1), geom.NewRect(5, 5, 5, 5)}

	// Racing first calls share one parse.
	firsts := make([]*geom.Rect, 8)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rects, err := b.Bounds(); err == nil && slices.Equal(rects, want) {
				firsts[i] = &rects[0]
			}
		}()
	}
	wg.Wait()
	for i, p := range firsts {
		if p == nil || p != firsts[0] {
			t.Fatalf("call %d got %p, call 0 %p: want one shared parse of %v", i, p, firsts[0], want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { b.Bounds() }); n != 0 {
		t.Fatalf("a cached Bounds allocates %v times, want 0", n)
	}

	w, _ := fs.CreateOrReplace("f")
	for _, rec := range []string{"1,1", "2,2", "3,3"} {
		w.WriteRecord(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	nf, _ := fs.Open("f")
	if rects, err := nf.Blocks[0].Bounds(); err != nil || len(rects) != 3 || rects[2] != geom.NewRect(3, 3, 3, 3) {
		t.Fatalf("replacement bounds = %v, %v; want the three new points", rects, err)
	}
	// The replaced generation still answers whoever holds it, from its cache.
	if rects, _ := b.Bounds(); &rects[0] != firsts[0] {
		t.Fatal("the held generation parsed its bounds again")
	}
	if err := fs.WriteFile("bad", []string{"0,0 x,1"}); err != nil {
		t.Fatal(err)
	}
	bad, _ := fs.Open("bad")
	for i := 0; i < 2; i++ {
		if _, err := bad.Blocks[0].Bounds(); err == nil {
			t.Fatalf("call %d: Bounds of a malformed region did not error", i)
		}
	}
}

func BenchmarkBlockPointsUncached(b *testing.B) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	pts := make([]geom.Point, 4096)
	recs := make([]string, len(pts))
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 1.25, Y: float64(i) * 3.5}
		recs[i] = geomio.EncodePoint(pts[i])
	}
	if err := fs.WriteFile("pts", recs); err != nil {
		b.Fatal(err)
	}
	f, _ := fs.Open("pts")
	blk := f.Blocks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geomio.DecodePoints(blk.Records()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockPointsCached(b *testing.B) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	pts := make([]geom.Point, 4096)
	recs := make([]string, len(pts))
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 1.25, Y: float64(i) * 3.5}
		recs[i] = geomio.EncodePoint(pts[i])
	}
	if err := fs.WriteFile("pts", recs); err != nil {
		b.Fatal(err)
	}
	f, _ := fs.Open("pts")
	blk := f.Blocks[0]
	if _, err := blk.Points(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Points(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColumnRecordsKeepNothing: a point block formats its text for
// whoever asks and keeps none of it. After SaveDir and two ReadAlls of a
// file written through WritePoint, no block holds text, the two reads
// share no memory, and both are the records a text write of the same
// points stores.
func TestColumnRecordsKeepNothing(t *testing.T) {
	pts := awkwardPoints(6, 600)
	recs := geomio.EncodePoints(pts)
	fs := New(Config{BlockSize: 1 << 10, DataNodes: 3})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		w.WritePoint(p, len(recs[i]))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveDir(t.TempDir()); err != nil {
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
		if !b.column || b.records != nil || b.cache.bounds != nil {
			t.Fatalf("block %d holds text after SaveDir and two reads", i)
		}
	}
}
