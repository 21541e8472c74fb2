package dfs

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// TestWriteSelectedCutsLikeText: records selected from a point block land
// in column blocks cut where writing their text would cut them — the same
// boundaries, Bytes and Records — which ship as columns and format back to
// the source text byte for byte; a selection from a text block stays text;
// a region block's selection keeps its text, mark and rects; and a switch
// between text and column writes cuts a block.
func TestWriteSelectedCutsLikeText(t *testing.T) {
	all := awkwardPoints(11, 400)
	recs := geomio.EncodePoints(all)
	src := pointBlock(t, all)
	var ids []int
	var pts []geom.Point
	for i := range recs {
		if i%3 != 1 {
			ids, pts = append(ids, i), append(pts, all[i])
		}
	}
	fs := New(Config{BlockSize: 512, DataNodes: 3})
	file := func(name string, write func(w *Writer)) *File {
		t.Helper()
		w, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		write(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	col := file("col", func(w *Writer) {
		w.WriteSelected(src, ids[:50])
		w.WriteSelected(src, ids[50:])
	})
	text := file("text", func(w *Writer) {
		for _, id := range ids {
			w.WriteRecord(recs[id])
		}
	})
	if col.Bytes != text.Bytes || col.Records != text.Records || len(col.Blocks) != len(text.Blocks) || len(col.Blocks) < 3 {
		t.Fatalf("column file: %d bytes, %d records, %d blocks; text file: %d, %d, %d",
			col.Bytes, col.Records, len(col.Blocks), text.Bytes, text.Records, len(text.Blocks))
	}
	for i, b := range col.Blocks {
		tb := text.Blocks[i]
		if !b.column || b.Bytes != tb.Bytes || !slices.Equal(b.Records(), tb.Records()) {
			t.Fatalf("block %d: column %v, %d bytes, records equal %v; text block %d bytes",
				i, b.column, b.Bytes, slices.Equal(b.Records(), tb.Records()), tb.Bytes)
		}
		if tag := frameTag(t, EncodeBlockFrame(b)); tag != FrameColumn {
			t.Fatalf("block %d ships as %q", i, tag)
		}
		if err := b.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := fs.ReadPointsCtx(context.Background(), "col"); err != nil || !sameBits(got, pts) {
		t.Fatalf("ReadPointsCtx of the column file: %d points, %v", len(got), err)
	}
	// A text file is parsed for the read.
	if got, err := fs.ReadPointsCtx(context.Background(), "text"); err != nil || !sameBits(got, pts) {
		t.Fatalf("ReadPointsCtx of the text file: %d points, %v", len(got), err)
	}

	mixed := file("mixed", func(w *Writer) {
		w.WriteRecord("a")
		w.WriteSelected(src, ids[:2])
		w.WriteRecord("b")
	})
	if n := len(mixed.Blocks); n != 3 || mixed.Blocks[0].column || !mixed.Blocks[1].column || mixed.Blocks[2].column {
		t.Fatalf("text, selection, text: %d blocks", n)
	}
	fromText := file("from text", func(w *Writer) { w.WriteSelected(textBlock(t, recs), ids[:5]) })
	if b := fromText.Blocks[0]; b.column || b.regions || frameTag(t, EncodeBlockFrame(b)) != FrameText ||
		!slices.Equal(b.Records(), []string{recs[0], recs[2], recs[3], recs[5], recs[6]}) {
		t.Fatalf("a selection from a text block: column %v, regions %v, records %q", b.column, b.regions, b.Records())
	}

	regs := awkwardRegions(4, 20)
	rsrc := oneBlock(t, func(w *Writer) {
		for _, rg := range regs {
			w.WriteRegions([]string{geomio.EncodeRegion(rg)}, []geom.Rect{rg.Bounds()})
		}
	})
	rf := file("regs", func(w *Writer) { w.WriteSelected(rsrc, []int{0, 7, 19}) })
	var rects []geom.Rect
	var rrecs []string
	for _, b := range rf.Blocks {
		r, err := b.Bounds()
		if err != nil || frameTag(t, EncodeBlockFrame(b)) != FrameRegions {
			t.Fatalf("a region selection's block %d ships as %q (%v)", b.ID, frameTag(t, EncodeBlockFrame(b)), err)
		}
		rects, rrecs = append(rects, r...), append(rrecs, b.Records()...)
	}
	want := []geom.Rect{regs[0].Bounds(), regs[7].Bounds(), regs[19].Bounds()}
	if !sameRects(rects, want) || !slices.Equal(rrecs, []string{rsrc.Record(0), rsrc.Record(7), rsrc.Record(19)}) {
		t.Fatalf("a region selection: rects %v, records %q", rects, rrecs)
	}
}

// TestCorruptColumnBlock: CorruptBlock damages a column block in its
// column — one coordinate bit, the stored checksum kept — and the read
// paths then see the mismatch.
func TestCorruptColumnBlock(t *testing.T) {
	pts := awkwardPoints(2, 60)
	src := pointBlock(t, pts)
	fs := New(Config{BlockSize: 256, DataNodes: 2})
	w, _ := fs.Create("col")
	w.WriteSelected(src, []int{0, 1, 2, 3, 4, 5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptBlock("col", 0); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("col")
	b := f.Blocks[0]
	if flipped := math.Float64bits(b.col[0].X) ^ math.Float64bits(pts[0].X); !b.column || flipped != 1 || !sameBits(b.col[1:], pts[1:6]) {
		t.Fatalf("the corrupt copy: column %v, first point %v, was %v", b.column, b.col[0], pts[0])
	}
	if err := b.VerifyCached(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyCached of a corrupt column = %v, want ErrChecksum", err)
	}
	if _, err := fs.ReadPointsCtx(context.Background(), "col"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPointsCtx of a corrupt column = %v, want ErrChecksum", err)
	}
}
