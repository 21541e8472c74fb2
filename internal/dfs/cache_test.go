package dfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

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

// TestBlockPayloadCachedAndInvalidated: a block's payload is built once
// for the block's lifetime; the only way its records change is a
// replacement, whose blocks are new and build their own.
func TestBlockPayloadCachedAndInvalidated(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	if err := fs.WriteFile("f", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("f")
	b := f.Blocks[0]

	builds := 0
	build := func(recs []string) (any, error) {
		builds++
		return fmt.Sprintf("decoded:%d", len(recs)), nil
	}
	for i := 0; i < 3; i++ {
		v, err := b.Payload(build)
		if err != nil {
			t.Fatal(err)
		}
		if v != "decoded:2" {
			t.Fatalf("payload = %v", v)
		}
	}
	if builds != 1 {
		t.Fatalf("payload built %d times, want 1", builds)
	}

	w, _ := fs.CreateOrReplace("f")
	for _, rec := range []string{"a", "b", "c"} {
		w.WriteRecord(rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	nf, _ := fs.Open("f")
	if v, err := nf.Blocks[0].Payload(build); err != nil || v != "decoded:3" || builds != 2 {
		t.Fatalf("replacement payload = %v, %v after %d builds, want decoded:3 on the second", v, err, builds)
	}
	// The replaced generation still answers whoever holds it.
	if v, _ := b.Payload(build); v != "decoded:2" || builds != 2 {
		t.Fatalf("held generation payload = %v after %d builds, want the cached decoded:2", v, builds)
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
