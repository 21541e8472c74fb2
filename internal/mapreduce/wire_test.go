package mapreduce

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// These tests hold the block-frame codec (internal/dfs/frame.go) to its
// contract from where its frames are used: what travels in PushBlockArgs
// and ReadBlockReply.

// blockFrameOf seals a hand-built payload, so a test can present the
// decoder with a frame whose CRC is good and whose layout is not.
func blockFrameOf(parts ...[]byte) []byte {
	return dfs.SealShard(bytes.Join(parts, nil))
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

var textTag, columnTag = []byte{dfs.FrameText}, []byte{dfs.FrameColumn}

// textFrame is the frame of a block that never saw WritePoint.
func textFrame(recs []string) []byte {
	return dfs.EncodeBlockFrame(dfs.NewBlockFromRecords("", recs), false)
}

// columnFrame is the frame of a block written through WritePoint alone.
func columnFrame(t testing.TB, pts []geom.Point) []byte {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		w.WritePoint(geomio.EncodePoint(p))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("pts")
	if err != nil || len(f.Blocks) != 1 {
		t.Fatalf("Open = %v, %v; want one block", f, err)
	}
	frame := dfs.EncodeBlockFrame(f.Blocks[0], false)
	if payload, err := dfs.UnsealShard(frame); err != nil || payload[0] != dfs.FrameColumn {
		t.Fatalf("a WritePoint block sealed as %q (%v), want a column", payload[:1], err)
	}
	return frame
}

// le64 lays float64s out as a column does.
func le64(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func TestBlockFrameRoundTrip(t *testing.T) {
	for name, recs := range map[string][]string{
		"empty block":    nil,
		"empty record":   {""},
		"empty among":    {"1,2", "", "", "3,4", ""},
		"multi-KiB":      {"a", strings.Repeat("0123456789abcdef", 1000), "b"},
		"long lengths":   {strings.Repeat("x", 127), strings.Repeat("y", 128), strings.Repeat("z", 16384)},
		"non-UTF-8":      {"\xff\xfe\x00", "\x80", "ok", "\xc3\x28"},
		"looks like one": {"\x02\x01\x01ab"},
		"looks like pts": {"1,2", "3.5,-4"},
	} {
		got, err := dfs.DecodeBlockFrame(textFrame(recs))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.NumRecords() != len(recs) {
			t.Fatalf("%s: %d records back, %d in", name, got.NumRecords(), len(recs))
		}
		for i := range recs {
			if got.Record(i) != recs[i] || got.Records()[i] != recs[i] {
				t.Fatalf("%s: record %d = %q, want %q", name, i, got.Record(i), recs[i])
			}
		}
	}
	for name, pts := range map[string][]geom.Point{
		"one point":  {{X: 1.5, Y: -2}},
		"duplicates": {{X: 3, Y: 4}, {X: 3, Y: 4}, {X: 3, Y: 4}},
		"odd floats": {{X: math.Inf(1), Y: math.Copysign(0, -1)}, {X: math.NaN(), Y: 5e-324}, {X: -math.MaxFloat64, Y: 0.1 + 0.2}},
	} {
		got, err := dfs.DecodeBlockFrame(columnFrame(t, pts))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		back, err := got.Points()
		if err != nil || len(back) != len(pts) || got.NumRecords() != len(pts) {
			t.Fatalf("%s: %d points back (%v), %d in", name, len(back), err, len(pts))
		}
		for i, p := range pts {
			if want := geomio.EncodePoint(p); got.Record(i) != want || got.Records()[i] != want || geomio.EncodePoint(back[i]) != want {
				t.Fatalf("%s: record %d = %q, point %v; want %q", name, i, got.Record(i), back[i], want)
			}
		}
	}
}

// TestBlockFrameRejectsMalformedLayout: every way a payload can disagree
// with itself behind a valid CRC is a torn shard — transient, so the
// reader's ladder moves on — and none of them allocates from the number
// it could not trust.
func TestBlockFrameRejectsMalformedLayout(t *testing.T) {
	good := textFrame([]string{"ab", "c"})
	goodCol := columnFrame(t, []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}})
	var gobbed bytes.Buffer // the frame shape before both of these
	if err := gob.NewEncoder(&gobbed).Encode([]string{"ab", "c"}); err != nil {
		t.Fatal(err)
	}
	pt := le64(1, 2)
	for name, frame := range map[string][]byte{
		"no payload":                 blockFrameOf(),
		"unknown tag":                blockFrameOf([]byte{'Q'}, uvarints(0)),
		"untagged text layout":       blockFrameOf(uvarints(2, 2, 1), []byte("abc")),
		"tag alone":                  blockFrameOf(textTag),
		"count cut short":            blockFrameOf(textTag, []byte{0x80}),
		"count not minimal":          blockFrameOf(textTag, []byte{0x82, 0x00}, uvarints(2, 1), []byte("abc")),
		"count overflows":            blockFrameOf(textTag, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}),
		"count beyond the payload":   blockFrameOf(textTag, uvarints(1<<62), []byte("abc")),
		"table cut short":            blockFrameOf(textTag, uvarints(3, 1, 1)),
		"length not minimal":         blockFrameOf(textTag, uvarints(2, 2), []byte{0x81, 0x00}, []byte("abc")),
		"length beyond the payload":  blockFrameOf(textTag, uvarints(2, 1<<63, 1), []byte("abc")),
		"lengths overflow together":  blockFrameOf(textTag, uvarints(2, 1<<63, 1<<63), []byte("abc")),
		"lengths exceed the arena":   blockFrameOf(textTag, uvarints(2, 2, 2), []byte("abc")),
		"trailing byte":              blockFrameOf(textTag, uvarints(2, 2, 1), []byte("abcd")),
		"bytes after an empty block": blockFrameOf(textTag, uvarints(0), []byte("x")),
		"truncated frame":            good[:len(good)-1],
		"flipped arena bit":          append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
		"gob payload":                blockFrameOf(gobbed.Bytes()),

		"column: tag alone":                 blockFrameOf(columnTag),
		"column: count cut short":           blockFrameOf(columnTag, []byte{0x80}),
		"column: count not minimal":         blockFrameOf(columnTag, []byte{0x81, 0x00}, uvarints(4), pt),
		"column: no text size":              blockFrameOf(columnTag, uvarints(0)),
		"column: text size not minimal":     blockFrameOf(columnTag, uvarints(1), []byte{0x84, 0x00}, pt),
		"column: count beyond the payload":  blockFrameOf(columnTag, uvarints(1<<60, 1<<62), pt),
		"column: count overflows in bytes":  blockFrameOf(columnTag, uvarints(1<<60+1, 4), pt),
		"column: one point short":           blockFrameOf(columnTag, uvarints(2, 8), pt),
		"column: half a point":              blockFrameOf(columnTag, uvarints(1, 4), pt[:8]),
		"column: trailing byte":             blockFrameOf(columnTag, uvarints(1, 4), pt, []byte{0}),
		"column: bytes after an empty one":  blockFrameOf(columnTag, uvarints(0, 0), []byte{0}),
		"column: text smaller than 0,0":     blockFrameOf(columnTag, uvarints(1, 3), pt),
		"column: text larger than any":      blockFrameOf(columnTag, uvarints(1, 51), pt),
		"column: text size for no points":   blockFrameOf(columnTag, uvarints(0, 4)),
		"column: truncated frame":           goodCol[:len(goodCol)-1],
		"column: flipped coordinate bit":    append(append([]byte(nil), goodCol[:len(goodCol)-1]...), goodCol[len(goodCol)-1]^1),
		"column: text layout under its tag": blockFrameOf(columnTag, uvarints(2, 2, 1), []byte("abc")),
	} {
		b, err := dfs.DecodeBlockFrame(frame)
		var torn *dfs.TornShardError
		if !errors.As(err, &torn) || !fault.IsTransient(err) {
			t.Errorf("%s: DecodeBlockFrame = %v, %v; want a transient *dfs.TornShardError", name, b, err)
		}
	}
	// The smallest frames there are: no records, no points.
	for name, frame := range map[string][]byte{
		"empty text":   blockFrameOf(textTag, uvarints(0)),
		"empty column": blockFrameOf(columnTag, uvarints(0, 0)),
	} {
		if b, err := dfs.DecodeBlockFrame(frame); err != nil || b.NumRecords() != 0 || len(b.Records()) != 0 {
			t.Errorf("%s: DecodeBlockFrame = %v, %v; want an empty block", name, b, err)
		}
	}
}

// FuzzDecodeBlockFrame: for both shapes the decoder never panics, rejects
// only with the torn-shard error the read ladder understands, sizes
// nothing from a number the frame merely claims, and accepts a frame only
// if it is the one encoding of its block.
func FuzzDecodeBlockFrame(f *testing.F) {
	for _, recs := range [][]string{nil, {""}, {"1.5,2.5", "3,4"}, {strings.Repeat("r", 300), "\xff"}} {
		frame := textFrame(recs)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(blockFrameOf(textTag, uvarints(1<<62), []byte("abc")))
	f.Add(blockFrameOf(textTag, uvarints(2, 1<<63, 1<<63), []byte("abc")))
	f.Add(blockFrameOf(textTag, []byte{0x82, 0x00}, uvarints(2, 1), []byte("abc")))
	for _, pts := range [][]geom.Point{
		{{X: 1.5, Y: 2.5}},
		{{X: 3, Y: 4}, {X: 3, Y: 4}, {X: math.Inf(-1), Y: math.NaN()}, {X: math.Copysign(0, -1), Y: 5e-324}},
	} {
		frame := columnFrame(f, pts)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(blockFrameOf(columnTag, uvarints(0, 0)))
	f.Add(blockFrameOf(columnTag, uvarints(1<<60, 1<<62), le64(1, 2)))
	f.Add(blockFrameOf(columnTag, uvarints(1, 4), le64(1, 2), []byte{0}))
	f.Add(blockFrameOf([]byte{'Q'}, uvarints(1, 4), le64(1, 2)))
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := dfs.DecodeBlockFrame(frame)
		if err != nil {
			if !errors.Is(err, dfs.ErrTornShard) {
				t.Fatalf("rejected with %v, want a torn-shard error", err)
			}
			// A seal-valid payload gets here only through a layout check;
			// re-sealing the mutated payload makes the fuzzer reach them.
			if len(frame) == 0 {
				return
			}
			b, err = dfs.DecodeBlockFrame(dfs.SealShard(frame))
			if err != nil {
				if !errors.Is(err, dfs.ErrTornShard) {
					t.Fatalf("re-sealed: rejected with %v, want a torn-shard error", err)
				}
				return
			}
			frame = dfs.SealShard(frame)
		}
		if b.NumRecords() > len(frame) {
			t.Fatalf("%d records out of a %d-byte frame", b.NumRecords(), len(frame))
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("the opened block does not verify: %v", err)
		}
		if again := dfs.EncodeBlockFrame(b, false); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, again)
		}
		// What the frame says of its block's text holds up when the text
		// is produced — and producing it sizes a buffer from that number.
		var text int64
		for _, r := range b.Records() {
			text += int64(len(r)) + 1
		}
		if payload, _ := dfs.UnsealShard(frame); payload[0] == dfs.FrameText && text != b.Bytes {
			t.Fatalf("text block of %d bytes says Bytes = %d", text, b.Bytes)
		}
		if len(b.Records()) != b.NumRecords() {
			t.Fatalf("%d records, NumRecords %d", len(b.Records()), b.NumRecords())
		}
	})
}
