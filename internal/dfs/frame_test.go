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

// writeBlock writes records into one block of a fresh file, each through
// WritePoint or WriteRecord as point(i) says, and returns the block.
func writeBlock(t *testing.T, recs []string, point func(i int) bool) *Block {
	t.Helper()
	fs := New(Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if point(i) {
			w.WritePoint(r)
		} else {
			w.WriteRecord(r)
		}
	}
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

// TestColumnFrameEqualsText: a block written through WritePoint crosses
// the data plane as header + 16·n bytes and opens as a block no accessor
// can tell from the writer's, or from the same records shipped as text.
func TestColumnFrameEqualsText(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		pts := awkwardPoints(seed, 1+int(seed)*97)
		src := writeBlock(t, geomio.EncodePoints(pts), func(int) bool { return true })
		frame := EncodeBlockFrame(src, false)
		if src.cache.pts != nil {
			t.Fatal("a one-shot encode left decoded points on the block")
		}
		n := len(pts)
		header := shardHeaderSize + 1 + len(binary.AppendUvarint(nil, uint64(n))) + len(binary.AppendUvarint(nil, uint64(src.Bytes)))
		if tag := frameTag(t, frame); tag != FrameColumn || len(frame) != header+pointSize*n {
			t.Fatalf("seed %d: frame is %q, %d bytes; want a column of %d + 16·%d", seed, tag, len(frame), header, n)
		}
		col, err := DecodeBlockFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		text, err := DecodeBlockFrame(EncodeBlockFrame(NewBlockFromRecords("", src.Records()), false))
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
		if tag := frameTag(t, EncodeBlockFrame(text, false)); tag != FrameText {
			t.Fatalf("seed %d: a block opened from text re-encodes as %q", seed, tag)
		}
		if again := EncodeBlockFrame(col, false); !slices.Equal(again, frame) {
			t.Fatalf("seed %d: the column block re-encodes to a different frame", seed)
		}
		// The repeatable rung parses through the cache and seals the same bytes.
		if kept := EncodeBlockFrame(src, true); !slices.Equal(kept, frame) || src.cache.pts == nil {
			t.Fatalf("seed %d: the keeping encode differs, or kept nothing", seed)
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

// TestPointMarkOnlyFromWritePoint: the mark is the writer's alone. One
// plain WriteRecord into a block, a CorruptBlock copy, a file that went
// through SaveDir/LoadDir and a block built outside a file all ship as
// text, however much their records look like points; and a marked block
// whose text breaks WritePoint's contract ships as the text it is.
func TestPointMarkOnlyFromWritePoint(t *testing.T) {
	recs := geomio.EncodePoints(awkwardPoints(3, 50))
	all := func(int) bool { return true }
	for name, tc := range map[string]struct {
		block *Block
		want  byte
	}{
		"WritePoint only":           {writeBlock(t, recs, all), FrameColumn},
		"WriteRecord only":          {writeBlock(t, recs, func(int) bool { return false }), FrameText},
		"one WriteRecord, first":    {writeBlock(t, recs, func(i int) bool { return i != 0 }), FrameText},
		"one WriteRecord, last":     {writeBlock(t, recs, func(i int) bool { return i != len(recs)-1 }), FrameText},
		"outside a file":            {NewBlockFromRecords("p", recs), FrameText},
		"WritePoint of a non-point": {writeBlock(t, []string{"1,2", "not a point"}, all), FrameText},
	} {
		for _, keep := range []bool{false, true} {
			if tag := frameTag(t, EncodeBlockFrame(tc.block, keep)); tag != tc.want {
				t.Errorf("%s (keep=%v): frame tag %q, want %q", name, keep, tag, tc.want)
			}
		}
	}

	fs := New(Config{BlockSize: 256, DataNodes: 2})
	w, _ := fs.Create("pts")
	for _, r := range recs {
		w.WritePoint(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tags := func(fs *FileSystem) (out []byte) {
		f, err := fs.Open("pts")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			out = append(out, frameTag(t, EncodeBlockFrame(b, false)))
		}
		return out
	}
	before := tags(fs)
	if len(before) < 3 || slices.Contains(before, FrameText) {
		t.Fatalf("a WritePoint file of several blocks has tags %q, want all columns", before)
	}
	if err := fs.CorruptBlock("pts", 1); err != nil {
		t.Fatal(err)
	}
	after := tags(fs)
	for i, tag := range after {
		if want := before[i]; i == 1 && tag != FrameText || i != 1 && tag != want {
			t.Errorf("after CorruptBlock(1): block %d ships as %q", i, tag)
		}
	}
	dir := t.TempDir()
	if err := fs.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir, Config{BlockSize: 256, DataNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tags(loaded); slices.Contains(got, FrameColumn) {
		t.Errorf("a LoadDir'd file has tags %q, want all text", got)
	}
}
