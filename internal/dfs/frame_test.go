package dfs

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// awkwardPoints is a seeded point set holding every kind of coordinate a
// points file can: duplicates, both zeros, both infinities, NaN,
// subnormals, the longest spellings and values that need all 17 digits.
func awkwardPoints(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	odd := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 0.1 + 0.2, 1.0 / 3, 1e21, 1e-7,
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		switch rng.Intn(4) {
		case 0:
			pts[i] = geom.Point{X: odd[rng.Intn(len(odd))], Y: odd[rng.Intn(len(odd))]}
		case 1:
			if i > 0 {
				pts[i] = pts[rng.Intn(i)] // a duplicate
				break
			}
			fallthrough
		case 2:
			pts[i] = geom.Point{X: math.Float64frombits(rng.Uint64()), Y: rng.NormFloat64()}
		default:
			pts[i] = geom.Point{X: rng.Float64() * 1e6, Y: rng.Float64() * 1e6}
		}
	}
	return pts
}

// pointBlock writes a copy of pts into one block of a fresh file through
// WritePoints and returns the block.
func pointBlock(t testing.TB, pts []geom.Point) *Block {
	t.Helper()
	return oneBlock(t, func(w *Writer) { w.WritePoints(slices.Clone(pts), pointLens(pts)) })
}

// pointLens returns each point's text length, as WritePoints takes them.
func pointLens(pts []geom.Point) []uint8 {
	lens := make([]uint8, len(pts))
	for i, p := range pts {
		lens[i] = uint8(len(geomio.EncodePoint(p)))
	}
	return lens
}

// textBlock writes recs into one block of a fresh file through
// WriteRecord and returns the block.
func textBlock(t testing.TB, recs []string) *Block {
	t.Helper()
	return oneBlock(t, func(w *Writer) {
		for _, r := range recs {
			w.WriteRecord(r)
		}
	})
}

// oneBlock runs write against a fresh file of one block and returns the
// block.
func oneBlock(t testing.TB, write func(w *Writer)) *Block {
	t.Helper()
	fs := New(Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	write(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil || len(f.Blocks) != 1 {
		t.Fatalf("Open = %v blocks, %v; want one block", f, err)
	}
	return f.Blocks[0]
}

// frameTag opens a frame's seal and returns its shape tag.
func frameTag(t *testing.T, frame []byte) byte {
	t.Helper()
	payload, err := UnsealShard(frame)
	if err != nil || len(payload) == 0 {
		t.Fatalf("UnsealShard = %d bytes, %v", len(payload), err)
	}
	return payload[0]
}

func sameBits(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// TestColumnFrameEqualsText: a block written through WritePoints crosses
// the data plane as header + 16·n bytes and opens as a block no accessor
// can tell from the writer's, or from the same records shipped as text.
func TestColumnFrameEqualsText(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		pts := awkwardPoints(seed, 1+int(seed)*97)
		src := pointBlock(t, pts)
		frame := EncodeBlockFrame(src)
		n := len(pts)
		header := shardHeaderSize + 1 + len(binary.AppendUvarint(nil, uint64(n))) + len(binary.AppendUvarint(nil, uint64(src.Bytes)))
		if tag := frameTag(t, frame); tag != FrameColumn || len(frame) != header+pointSize*n {
			t.Fatalf("seed %d: frame is %q, %d bytes; want a column of %d + 16·%d", seed, tag, len(frame), header, n)
		}
		col, err := DecodeBlockFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		text, err := DecodeBlockFrame(EncodeBlockFrame(NewBlockFromRecords("", src.Records())))
		if err != nil {
			t.Fatal(err)
		}
		want, err := src.Points()
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]*Block{"column": col, "text": text} {
			if b.NumRecords() != n || b.Bytes != src.Bytes {
				t.Fatalf("seed %d, %s: %d records, %d bytes; want %d, %d", seed, name, b.NumRecords(), b.Bytes, n, src.Bytes)
			}
			for i := 0; i < n; i++ {
				if got := b.Record(i); got != src.Record(i) {
					t.Fatalf("seed %d, %s: Record(%d) = %q, want %q", seed, name, i, got, src.Record(i))
				}
			}
			if !slices.Equal(b.Records(), src.Records()) {
				t.Fatalf("seed %d, %s: Records differ from the writer's", seed, name)
			}
			if got, err := b.Points(); err != nil || !sameBits(got, want) {
				t.Fatalf("seed %d, %s: Points differ from the writer's (%v)", seed, name, err)
			}
			if err := b.VerifyCached(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
		}
		if tag := frameTag(t, EncodeBlockFrame(text)); tag != FrameText {
			t.Fatalf("seed %d: a block opened from text re-encodes as %q", seed, tag)
		}
		if again := EncodeBlockFrame(col); !slices.Equal(again, frame) {
			t.Fatalf("seed %d: the column block re-encodes to a different frame", seed)
		}

		// The block's own seal covers the column: one flipped bit of one
		// coordinate and Verify says so.
		i := int(seed) % n
		col.col[i].Y = math.Float64frombits(math.Float64bits(col.col[i].Y) ^ 1<<17)
		var cerr *ChecksumError
		if err := col.Verify(); !errors.As(err, &cerr) {
			t.Fatalf("seed %d: Verify after a flipped column bit = %v, want a *ChecksumError", seed, err)
		}
		// And the frame's seal covers it in flight.
		frame[len(frame)-1-int(seed)] ^= 0x40
		var torn *TornShardError
		if _, err := DecodeBlockFrame(frame); !errors.As(err, &torn) {
			t.Fatalf("seed %d: decode after a flipped frame byte = %v, want a *TornShardError", seed, err)
		}
	}
}

// TestPointMarkOnlyFromWritePoints: only WritePoints stores points. A
// block of WriteRecord calls, a file written by WriteFile and a block
// built outside a file all ship as text, however much their records look
// like points; a CorruptBlock copy of a point block is a point block that
// fails its checksum, and the file's other blocks, cut from the same run,
// still pass theirs.
func TestPointMarkOnlyFromWritePoints(t *testing.T) {
	pts := awkwardPoints(3, 50)
	recs := geomio.EncodePoints(pts)
	for name, tc := range map[string]struct {
		block *Block
		want  byte
	}{
		"WritePoints only": {pointBlock(t, pts), FrameColumn},
		"WriteRecord only": {textBlock(t, recs), FrameText},
		"outside a file":   {NewBlockFromRecords("p", recs), FrameText},
	} {
		if tag := frameTag(t, EncodeBlockFrame(tc.block)); tag != tc.want {
			t.Errorf("%s: frame tag %q, want %q", name, tag, tc.want)
		}
	}

	fs := New(Config{BlockSize: 256, DataNodes: 2})
	w, _ := fs.Create("pts")
	w.WritePoints(slices.Clone(pts), pointLens(pts))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tags := func(fs *FileSystem) (out []byte) {
		f, err := fs.Open("pts")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			out = append(out, frameTag(t, EncodeBlockFrame(b)))
		}
		return out
	}
	before := tags(fs)
	if len(before) < 3 || slices.Contains(before, FrameText) {
		t.Fatalf("a WritePoints file of several blocks has tags %q, want all columns", before)
	}
	if err := fs.CorruptBlock("pts", 1); err != nil {
		t.Fatal(err)
	}
	if after := tags(fs); !slices.Equal(after, before) {
		t.Errorf("after CorruptBlock(1) the blocks ship as %q, were %q", after, before)
	}
	f, _ := fs.Open("pts")
	if !errors.Is(f.Blocks[1].VerifyCached(), ErrChecksum) {
		t.Error("after CorruptBlock(1) block 1 verifies")
	}
	for i, b := range f.Blocks {
		if err := b.Verify(); i != 1 && err != nil {
			t.Errorf("after CorruptBlock(1) block %d fails: %v", i, err)
		}
	}
	text := New(Config{BlockSize: 256, DataNodes: 2})
	if err := text.WriteFile("pts", recs); err != nil {
		t.Fatal(err)
	}
	if got := tags(text); len(got) != len(before) || slices.Contains(got, FrameColumn) {
		t.Errorf("a WriteFile of the same points has tags %q, want %d text blocks", got, len(before))
	}
}

// TestWritePointRejectsImpossibleTextLen: a point's text is 3 to
// geomio.MaxPointLen bytes, what a column frame may claim; WritePoints
// refuses a run holding any other length, or a length short of a point,
// rather than store a block no reader accepts, and writes none of it.
func TestWritePointRejectsImpossibleTextLen(t *testing.T) {
	fs := New(Config{DataNodes: 1})
	w, _ := fs.Create("pts")
	for _, lens := range [][]uint8{{0}, {2}, {geomio.MaxPointLen + 1}, {255}, {3, 2}, {3}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WritePoints of 2 points with text lengths %v did not panic", lens)
				}
			}()
			w.WritePoints(make([]geom.Point, 2), lens)
		}()
	}
	w.WritePoints(make([]geom.Point, 2), []uint8{3, geomio.MaxPointLen})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("pts")
	if b, err := DecodeBlockFrame(EncodeBlockFrame(f.Blocks[0])); err != nil || b.NumRecords() != 2 || f.Records != 2 {
		t.Fatalf("the two possible lengths: %v, %d records", err, f.Records)
	}
}

// awkwardRegions is a seeded region set holding what a region file can:
// −0 and subnormal vertices, several rings, an empty ring among others, a
// lone vertex and a region of no rings at all.
func awkwardRegions(seed int64, n int) []geom.Region {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	ring := func(k int) geom.Polygon {
		pg := geom.Polygon{Vertices: make([]geom.Point, k)}
		for i := range pg.Vertices {
			pg.Vertices[i] = geom.Point{X: rng.NormFloat64() * 1e3, Y: rng.Float64() - 0.5}
		}
		return pg
	}
	regs := make([]geom.Region, n)
	for i := range regs {
		switch rng.Intn(6) {
		case 0:
			regs[i] = geom.RegionOf(geom.Polygon{Vertices: []geom.Point{{X: negZero, Y: 0}, {X: 0, Y: negZero}, {X: 5e-324, Y: negZero}}})
		case 1:
			regs[i] = geom.Region{Rings: []geom.Polygon{ring(4), {}, ring(3)}}
		case 2:
			regs[i] = geom.RegionOf(ring(1))
		case 3:
			regs[i] = geom.Region{Rings: []geom.Polygon{{}}}
		default:
			regs[i] = geom.Region{Rings: []geom.Polygon{ring(3 + rng.Intn(5)), ring(3)}}
		}
	}
	return regs
}

func sameRects(a, b []geom.Rect) bool {
	bits := func(r geom.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	return slices.EqualFunc(a, b, func(p, q geom.Rect) bool { return bits(p) == bits(q) })
}

// TestRegionMarkOnlyFromWriteRegions: a block that received nothing but
// region runs ships its rects with its text and answers Bounds without a
// parse, on the master and wherever its frame opens; its own CRC is the
// text's. One WriteRecord into it, a CorruptBlock copy or a WriteFile of
// the same records is text, and still answers Bounds — the same rects,
// bit for bit — by parsing. One point run into it cuts: the point is a
// block of its own and the region blocks either side keep their mark.
func TestRegionMarkOnlyFromWriteRegions(t *testing.T) {
	regs := awkwardRegions(5, 60)
	recs := make([]string, len(regs))
	want := make([]geom.Rect, len(regs))
	for i, rg := range regs {
		recs[i], want[i] = geomio.EncodeRegion(rg), rg.Bounds()
	}
	region := func(w *Writer, i int) { w.WriteRegions(recs[i:i+1], want[i:i+1]) }
	except := func(at int, other func(w *Writer, rec string)) func(w *Writer, i int) {
		return func(w *Writer, i int) {
			if i == at {
				other(w, recs[i])
			} else {
				region(w, i)
			}
		}
	}
	for name, tc := range map[string]struct {
		write func(w *Writer, i int)
		want  byte
	}{
		"WriteRegions only":      {region, FrameRegions},
		"one WriteRecord, first": {except(0, (*Writer).WriteRecord), FrameText},
		"one WriteRecord, last":  {except(len(recs)-1, (*Writer).WriteRecord), FrameText},
	} {
		b := oneBlock(t, func(w *Writer) {
			for i := range recs {
				tc.write(w, i)
			}
		})
		frame := EncodeBlockFrame(b)
		if tag := frameTag(t, frame); tag != tc.want {
			t.Fatalf("%s: frame tag %q, want %q", name, tag, tc.want)
		}
		opened, err := DecodeBlockFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		for side, blk := range map[string]*Block{"written": b, "opened": opened} {
			if got, err := blk.Bounds(); err != nil || !sameRects(got, want) {
				t.Fatalf("%s, %s: Bounds differ from the regions' (%v)", name, side, err)
			}
			if !slices.Equal(blk.Records(), recs) || blk.Bytes != b.Bytes || blk.Checksum() != b.Checksum() || blk.VerifyCached() != nil {
				t.Fatalf("%s, %s: text, size or CRC differ from the writer's", name, side)
			}
			if n := testing.AllocsPerRun(10, func() { blk.Bounds() }); tc.want == FrameRegions && n != 0 {
				t.Fatalf("%s, %s: Bounds of a region-marked block allocates %v times", name, side, n)
			}
		}
		if again := EncodeBlockFrame(opened); !slices.Equal(again, frame) {
			t.Fatalf("%s: the opened block re-encodes to a different frame", name)
		}
	}

	// One point run among region runs cuts on both sides of the point;
	// the region blocks keep their mark and their rects.
	mid := len(recs) / 2
	pt := geom.Point{X: 0.25, Y: 1.5}
	one := New(Config{BlockSize: 1 << 30, DataNodes: 1})
	ow, _ := one.Create("mixed")
	for i := range mid {
		region(ow, i)
	}
	ow.WritePoints([]geom.Point{pt}, pointLens([]geom.Point{pt}))
	for i := mid; i < len(recs); i++ {
		region(ow, i)
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	mf, _ := one.Open("mixed")
	if len(mf.Blocks) != 3 {
		t.Fatalf("one point run among regions: %d blocks, want 3", len(mf.Blocks))
	}
	var tags []byte
	for _, b := range mf.Blocks {
		tags = append(tags, frameTag(t, EncodeBlockFrame(b)))
	}
	if want := []byte{FrameRegions, FrameColumn, FrameRegions}; !slices.Equal(tags, want) {
		t.Fatalf("one point run among regions: blocks ship as %q, want %q", tags, want)
	}
	if got := mf.Blocks[1].Records(); !slices.Equal(got, []string{geomio.EncodePoint(pt)}) {
		t.Fatalf("one point run among regions: the point block holds %q", got)
	}
	for i, part := range [][2]int{{0, mid}, {mid, len(recs)}} {
		b := mf.Blocks[2*i]
		if got, err := b.Bounds(); err != nil || !sameRects(got, want[part[0]:part[1]]) {
			t.Fatalf("one point run among regions, block %d: Bounds differ from the regions' (%v)", 2*i, err)
		}
		if n := testing.AllocsPerRun(10, func() { b.Bounds() }); n != 0 {
			t.Fatalf("one point run among regions, block %d: Bounds allocates %v times", 2*i, n)
		}
		if !slices.Equal(b.Records(), recs[part[0]:part[1]]) || b.VerifyCached() != nil {
			t.Fatalf("one point run among regions, block %d: text differs or fails its checksum", 2*i)
		}
	}

	fs := New(Config{BlockSize: 512, DataNodes: 2})
	w, _ := fs.Create("regs")
	w.WriteRegions(slices.Clone(recs), slices.Clone(want))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(fs *FileSystem, wantTag byte) {
		t.Helper()
		f, err := fs.Open("regs")
		if err != nil || len(f.Blocks) < 3 {
			t.Fatalf("Open = %v, %v; want several blocks", f, err)
		}
		var all []geom.Rect
		for i, b := range f.Blocks {
			if tag := frameTag(t, EncodeBlockFrame(b)); tag != wantTag {
				t.Errorf("block %d ships as %q, want %q", i, tag, wantTag)
			}
			rects, err := b.Bounds()
			if err != nil || b.VerifyCached() != nil {
				t.Fatalf("block %d: %v, or it fails its checksum", i, err)
			}
			all = append(all, rects...)
		}
		if !sameRects(all, want) {
			t.Error("the file's Bounds differ from the regions'")
		}
	}
	check(fs, FrameRegions)
	text := New(Config{BlockSize: 512, DataNodes: 2})
	if err := text.WriteFile("regs", recs); err != nil {
		t.Fatal(err)
	}
	check(text, FrameText)

	if err := fs.CorruptBlock("regs", 1); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("regs")
	bad := f.Blocks[1]
	var cerr *ChecksumError
	if err := bad.VerifyCached(); !errors.As(err, &cerr) {
		t.Fatalf("VerifyCached of the corrupt copy = %v, want a *ChecksumError", err)
	}
	if tag := frameTag(t, EncodeBlockFrame(bad)); tag != FrameText || bad.rects != nil {
		t.Fatalf("the corrupt copy ships as %q, holding %d rects; want unmarked text", tag, len(bad.rects))
	}
	if tag := frameTag(t, EncodeBlockFrame(f.Blocks[2])); tag != FrameRegions {
		t.Fatalf("an untouched block beside the corrupt one ships as %q", tag)
	}
	for i, b := range f.Blocks {
		if err := b.Verify(); i != 1 && err != nil {
			t.Errorf("after CorruptBlock(1) block %d fails: %v", i, err)
		}
	}
}
