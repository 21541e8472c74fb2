package dfs

import (
	"errors"
	"slices"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// runFile writes one file through write on a fresh file system of the
// given block size and returns the file system and the published file.
func runFile(t *testing.T, blockSize int64, write func(w *Writer)) (*FileSystem, *File) {
	t.Helper()
	fs := New(Config{BlockSize: blockSize, DataNodes: 3})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	write(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	return fs, f
}

// sameCuts fails unless two files of two fresh file systems have the same
// layout: Bytes, Records, per-node bytes, and block for block the ID,
// node, partition, Bytes and records.
func sameCuts(t *testing.T, afs *FileSystem, a *File, bfs *FileSystem, b *File) {
	t.Helper()
	if a.Bytes != b.Bytes || a.Records != b.Records || len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("%d bytes, %d records, %d blocks; the text write %d, %d, %d",
			a.Bytes, a.Records, len(a.Blocks), b.Bytes, b.Records, len(b.Blocks))
	}
	for i, x := range a.Blocks {
		y := b.Blocks[i]
		if x.ID != y.ID || x.Node != y.Node || x.Partition != y.Partition || x.Bytes != y.Bytes || !slices.Equal(x.Records(), y.Records()) {
			t.Fatalf("block %d: %v/%d/%q/%d bytes/%d records; the text write's %v/%d/%q/%d/%d",
				i, x.ID, x.Node, x.Partition, x.Bytes, x.NumRecords(), y.ID, y.Node, y.Partition, y.Bytes, y.NumRecords())
		}
	}
	if !slices.Equal(afs.NodeBytes(), bfs.NodeBytes()) {
		t.Fatalf("bytes per node %v, the text write's %v", afs.NodeBytes(), bfs.NodeBytes())
	}
}

// runCase is a sequence of writes over records [lo, hi) of one input:
// run(lo, hi) is one run, or the same records one WriteRecord each.
type runCase struct {
	name      string
	blockSize int64
	write     func(w *Writer, run func(lo, hi int))
	// views: the case writes one run per partition and no block
	// continues another run, so every block is a subslice of the input.
	views bool
}

// runCases cover n records: a run over several blocks, runs continuing a
// non-empty block, empty runs among others and alone, partitions, and
// records whose text exceeds BlockSize.
func runCases(n int) []runCase {
	return []runCase{
		{"one run over many blocks", 256, func(w *Writer, run func(lo, hi int)) { run(0, n) }, true},
		{"runs continuing a block", 256, func(w *Writer, run func(lo, hi int)) { run(0, 3); run(3, 5); run(5, n) }, false},
		{"empty runs", 256, func(w *Writer, run func(lo, hi int)) { run(0, 0); run(0, 10); run(10, 10); run(10, n); run(n, n) }, false},
		{"only an empty run", 256, func(w *Writer, run func(lo, hi int)) { run(0, 0) }, true},
		{"partitions", 256, func(w *Writer, run func(lo, hi int)) {
			w.SetPartition("a")
			run(0, n/3)
			w.SetPartition("b")
			run(n/3, n/3+1)
			w.SetPartition("c")
			run(n/3+1, n)
		}, true},
		{"records longer than a block", 16, func(w *Writer, run func(lo, hi int)) { run(0, n) }, true},
	}
}

// TestWritePointsCutsLikeText: a point run is cut where a WriteRecord of
// its text is cut — the same blocks, Bytes, Records and placement — in
// every runCases shape. Each block's column and lengths have no room to
// grow, each block verifies, and a block of a run that continues no other
// is a view of the run, not a copy.
func TestWritePointsCutsLikeText(t *testing.T) {
	pts := awkwardPoints(12, 300)
	recs, lens := geomio.EncodePoints(pts), pointLens(pts)
	for _, tc := range runCases(len(pts)) {
		t.Run(tc.name, func(t *testing.T) {
			cfs, col := runFile(t, tc.blockSize, func(w *Writer) {
				tc.write(w, func(lo, hi int) { w.WritePoints(pts[lo:hi], lens[lo:hi]) })
			})
			tfs, text := runFile(t, tc.blockSize, func(w *Writer) {
				tc.write(w, func(lo, hi int) {
					for _, r := range recs[lo:hi] {
						w.WriteRecord(r)
					}
				})
			})
			sameCuts(t, cfs, col, tfs, text)
			at, lone := 0, 0
			for i, b := range col.Blocks {
				n := len(b.col)
				if !b.column || len(b.lens) != n || cap(b.col) != n || cap(b.lens) != n {
					t.Fatalf("block %d: column %v, %d points with %d lengths, room for %d and %d",
						i, b.column, n, len(b.lens), cap(b.col), cap(b.lens))
				}
				if tc.views && (&b.col[0] != &pts[at] || &b.lens[0] != &lens[at]) {
					t.Fatalf("block %d is a copy, not a view of points %d on", i, at)
				}
				if err := b.Verify(); err != nil {
					t.Fatal(err)
				}
				if n == 1 && b.Bytes > tc.blockSize {
					lone++
				}
				at += n
			}
			if tc.blockSize == 16 && lone == 0 {
				t.Fatal("no point's text exceeds the block size")
			}
		})
	}
}

// TestTextBetweenPointRunsCuts: a text record between two point runs is
// a block of its own, however much room the blocks have.
func TestTextBetweenPointRunsCuts(t *testing.T) {
	pts := awkwardPoints(13, 10)
	recs, lens := geomio.EncodePoints(pts), pointLens(pts)
	_, f := runFile(t, 1<<20, func(w *Writer) {
		w.WritePoints(pts[:5], lens[:5])
		w.WriteRecord("a")
		w.WritePoints(pts[5:], lens[5:])
	})
	if len(f.Blocks) != 3 || !f.Blocks[0].column || f.Blocks[1].column || !f.Blocks[2].column {
		t.Fatalf("point run, text, point run: %d blocks", len(f.Blocks))
	}
	if want := append(append(slices.Clone(recs[:5]), "a"), recs[5:]...); !slices.Equal(fileRecords(f), want) {
		t.Fatalf("records %q, want %q", fileRecords(f), want)
	}
}

// TestWriteRegionsCutsLikeText: a region run is cut where a WriteRecord
// of its text is cut, in every runCases shape. Each block is
// region-marked and answers Bounds with its records' MBRs; its records
// and rects have no room to grow, and a block of a run that continues no
// other is a view of the run.
func TestWriteRegionsCutsLikeText(t *testing.T) {
	regs := awkwardRegions(14, 120)
	recs, rects := make([]string, len(regs)), make([]geom.Rect, len(regs))
	for i, rg := range regs {
		recs[i], rects[i] = geomio.EncodeRegion(rg), rg.Bounds()
	}
	for _, tc := range runCases(len(regs)) {
		t.Run(tc.name, func(t *testing.T) {
			rfs, reg := runFile(t, tc.blockSize, func(w *Writer) {
				tc.write(w, func(lo, hi int) { w.WriteRegions(recs[lo:hi], rects[lo:hi]) })
			})
			tfs, text := runFile(t, tc.blockSize, func(w *Writer) {
				tc.write(w, func(lo, hi int) {
					for _, r := range recs[lo:hi] {
						w.WriteRecord(r)
					}
				})
			})
			sameCuts(t, rfs, reg, tfs, text)
			at := 0
			for i, b := range reg.Blocks {
				n := len(b.records)
				got, err := b.Bounds()
				if !b.regions || err != nil || !sameRects(got, rects[at:at+n]) {
					t.Fatalf("block %d: regions %v, Bounds differ from the regions' (%v)", i, b.regions, err)
				}
				if cap(b.records) != n || cap(b.rects) != n {
					t.Fatalf("block %d holds %d records with room for %d records and %d rects", i, n, cap(b.records), cap(b.rects))
				}
				if tc.views && (&b.records[0] != &recs[at] || &b.rects[0] != &rects[at]) {
					t.Fatalf("block %d is a copy, not a view of regions %d on", i, at)
				}
				if err := b.Verify(); err != nil {
					t.Fatal(err)
				}
				at += n
			}
		})
	}
}

// TestCorruptBlockSparesItsRun: one file's blocks share the run they were
// cut from, so CorruptBlock(i) must damage a copy: block i then fails its
// checksum, and every other block of the file, and every block of the
// generation it replaced, still passes.
func TestCorruptBlockSparesItsRun(t *testing.T) {
	pts := awkwardPoints(15, 200)
	lens := pointLens(pts)
	regs := awkwardRegions(15, 80)
	recs, rects := make([]string, len(regs)), make([]geom.Rect, len(regs))
	for i, rg := range regs {
		recs[i], rects[i] = geomio.EncodeRegion(rg), rg.Bounds()
	}
	for name, write := range map[string]func(w *Writer){
		"points":  func(w *Writer) { w.WritePoints(pts, lens) },
		"regions": func(w *Writer) { w.WriteRegions(recs, rects) },
	} {
		_, f := runFile(t, 256, write)
		if len(f.Blocks) < 3 {
			t.Fatalf("%s: %d blocks, want several", name, len(f.Blocks))
		}
		for i := range f.Blocks {
			fs, before := runFile(t, 256, write)
			if err := fs.CorruptBlock("f", i); err != nil {
				if slices.ContainsFunc(before.Blocks[i].Records(), func(r string) bool { return r != "" }) {
					t.Fatal(err)
				}
				continue // a block of empty regions has no byte to flip
			}
			after, _ := fs.Open("f")
			for j, b := range after.Blocks {
				if err := b.Verify(); (j == i) != errors.Is(err, ErrChecksum) {
					t.Fatalf("%s: after CorruptBlock(%d) block %d verifies as %v", name, i, j, err)
				}
				if err := before.Blocks[j].Verify(); err != nil {
					t.Fatalf("%s: after CorruptBlock(%d) the replaced generation's block %d fails: %v", name, i, j, err)
				}
			}
		}
	}
}

// fileRecords is every record of f, block after block.
func fileRecords(f *File) []string {
	var out []string
	for _, b := range f.Blocks {
		out = append(out, b.Records()...)
	}
	return out
}
