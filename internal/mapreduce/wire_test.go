package mapreduce

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/wirefmt"
)

// These tests hold the wire's layouts to their contract: the block-frame
// codec (internal/dfs/frame.go) from where its frames are used — what
// travels in PushBlockArgs and ReadBlockReply — the pair batches of spill
// streams, and the layout of every message of the ten RPC methods. The
// rules every layout shares are internal/wirefmt's, tested there.

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

var textTag, columnTag, regionsTag = []byte{dfs.FrameText}, []byte{dfs.FrameColumn}, []byte{dfs.FrameRegions}

// str lays s out as every string is: its length, then its bytes.
func str(s string) []byte { return append(uvarints(uint64(len(s))), s...) }

// textFrame is the frame of a block that never saw WritePoints.
func textFrame(recs []string) []byte {
	return dfs.EncodeBlockFrame(dfs.NewBlockFromRecords("", recs))
}

// columnFrame is the frame of a block written through WritePoints alone.
func columnFrame(t testing.TB, pts []geom.Point) []byte {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	lens := make([]uint8, len(pts))
	for i, p := range pts {
		lens[i] = uint8(len(geomio.EncodePoint(p)))
	}
	w.WritePoints(pts, lens)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("pts")
	if err != nil || len(f.Blocks) != 1 {
		t.Fatalf("Open = %v, %v; want one block", f, err)
	}
	frame := dfs.EncodeBlockFrame(f.Blocks[0])
	if payload, err := dfs.UnsealShard(frame); err != nil || payload[0] != dfs.FrameColumn {
		t.Fatalf("a WritePoints block sealed as %q (%v), want a column", payload[:1], err)
	}
	return frame
}

// regionsFrame is the frame of a block written through WriteRegions alone.
func regionsFrame(t testing.TB, regs []geom.Region) []byte {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("regs")
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
	f, err := fs.Open("regs")
	if err != nil || len(f.Blocks) != 1 {
		t.Fatalf("Open = %v, %v; want one block", f, err)
	}
	frame := dfs.EncodeBlockFrame(f.Blocks[0])
	if payload, err := dfs.UnsealShard(frame); err != nil || payload[0] != dfs.FrameRegions {
		t.Fatalf("a WriteRegions block sealed as %q (%v), want regions", payload[:1], err)
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
	for name, regs := range map[string][]geom.Region{
		"one ring":     {geom.RegionOf(geom.Polygon{Vertices: []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 3}}})},
		"no rings":     {{}},
		"rings and -0": {{Rings: []geom.Polygon{{Vertices: []geom.Point{{X: math.Copysign(0, -1), Y: 1}}}, {}, {Vertices: []geom.Point{{X: 5, Y: -2}, {X: 4, Y: 3}}}}}},
	} {
		got, err := dfs.DecodeBlockFrame(regionsFrame(t, regs))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		rects, err := got.Bounds()
		if err != nil || len(rects) != len(regs) || got.NumRecords() != len(regs) {
			t.Fatalf("%s: %d rects back (%v), %d in", name, len(rects), err, len(regs))
		}
		for i, rg := range regs {
			if want := geomio.EncodeRegion(rg); got.Record(i) != want || rects[i] != rg.Bounds() {
				t.Fatalf("%s: record %d = %q, %v; want %q, %v", name, i, got.Record(i), rects[i], want, rg.Bounds())
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
	goodReg := regionsFrame(t, []geom.Region{geom.RegionOf(geom.Polygon{Vertices: []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}})})
	rect := le64(1, 2, 3, 4)
	flip := func(frame []byte, i int) []byte {
		out := bytes.Clone(frame)
		out[i] ^= 1
		return out
	}
	var gobbed bytes.Buffer // the frame shape before both of these
	if err := gob.NewEncoder(&gobbed).Encode([]string{"ab", "c"}); err != nil {
		t.Fatal(err)
	}
	pt := le64(1, 2)
	for name, frame := range map[string][]byte{
		"no payload":                 blockFrameOf(),
		"unknown tag":                blockFrameOf([]byte{'Q'}, uvarints(0)),
		"untagged text layout":       blockFrameOf(uvarints(2), str("ab"), str("c")),
		"tag alone":                  blockFrameOf(textTag),
		"count cut short":            blockFrameOf(textTag, []byte{0x80}),
		"count not minimal":          blockFrameOf(textTag, []byte{0x82, 0x00}, str("ab"), str("c")),
		"count overflows":            blockFrameOf(textTag, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}),
		"count beyond the payload":   blockFrameOf(textTag, uvarints(1<<62), []byte("abc")),
		"records cut short":          blockFrameOf(textTag, uvarints(3), str("a"), str("b")),
		"length not minimal":         blockFrameOf(textTag, uvarints(2), []byte{0x82, 0x00}, []byte("ab"), str("c")),
		"length beyond the payload":  blockFrameOf(textTag, uvarints(2, 1<<63), []byte("abc")),
		"lengths overflow together":  blockFrameOf(textTag, uvarints(2, 1<<63), []byte("a"), uvarints(1<<63), []byte("abc")),
		"length past the last byte":  blockFrameOf(textTag, uvarints(2), str("ab"), uvarints(2), []byte("c")),
		"trailing byte":              blockFrameOf(textTag, uvarints(2), str("ab"), str("c"), []byte("d")),
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
		"column: text layout under its tag": blockFrameOf(columnTag, uvarints(2), str("ab"), str("c")),

		"regions: tag alone":                 blockFrameOf(regionsTag),
		"regions: count not minimal":         blockFrameOf(regionsTag, []byte{0x81, 0x00}, rect, uvarints(1), str("1,2")),
		"regions: count beyond the payload":  blockFrameOf(regionsTag, uvarints(1<<60), rect, uvarints(1), str("1,2")),
		"regions: rect cut short":            blockFrameOf(regionsTag, uvarints(1), rect[:31]),
		"regions: no string list":            blockFrameOf(regionsTag, uvarints(1), rect),
		"regions: string list cut short":     blockFrameOf(regionsTag, uvarints(1), rect, uvarints(1, 3), []byte("1,")),
		"regions: fewer records than rects":  blockFrameOf(regionsTag, uvarints(2), rect, rect, uvarints(1), str("1,2")),
		"regions: more records than rects":   blockFrameOf(regionsTag, uvarints(1), rect, uvarints(2), str("1,2"), str("3,4")),
		"regions: trailing byte":             blockFrameOf(regionsTag, uvarints(1), rect, uvarints(1), str("1,2"), []byte{0}),
		"regions: bytes after an empty one":  blockFrameOf(regionsTag, uvarints(0, 0), []byte{0}),
		"regions: text layout under its tag": blockFrameOf(regionsTag, uvarints(2), str("ab"), str("c")),
		"regions: truncated frame":           goodReg[:len(goodReg)-1],
		"regions: flipped rect bit":          flip(goodReg, 16+2), // past the seal's 16 B, the tag and the count
	} {
		var b *dfs.Block
		var err error
		if n := allocBytes(20, func() { b, err = dfs.DecodeBlockFrame(frame) }); n > 4<<10 {
			t.Errorf("%s: a rejected frame allocated %d bytes", name, n)
		}
		var torn *dfs.TornShardError
		if !errors.As(err, &torn) || !fault.IsTransient(err) {
			t.Errorf("%s: DecodeBlockFrame = %v, %v; want a transient *dfs.TornShardError", name, b, err)
		}
	}
	// The smallest frames there are: no records, no points.
	for name, frame := range map[string][]byte{
		"empty text":    blockFrameOf(textTag, uvarints(0)),
		"empty column":  blockFrameOf(columnTag, uvarints(0, 0)),
		"empty regions": blockFrameOf(regionsTag, uvarints(0, 0)),
	} {
		if b, err := dfs.DecodeBlockFrame(frame); err != nil || b.NumRecords() != 0 || len(b.Records()) != 0 {
			t.Errorf("%s: DecodeBlockFrame = %v, %v; want an empty block", name, b, err)
		}
	}
}

// TestShardPairsRoundTrip: a spill stream gives back exactly the pairs it
// was made of, across batch boundaries, whatever bytes they hold.
func TestShardPairsRoundTrip(t *testing.T) {
	many := make([]Pair, 2*shardBatchPairs+1)
	for i := range many {
		many[i] = Pair{Key: fmt.Sprint(i % 7), Value: strings.Repeat("v", i%300)}
	}
	for name, pairs := range map[string][]Pair{
		"no pairs":         nil,
		"empty key, value": {{}},
		"non-UTF-8":        {{Key: "\xff\x00", Value: "\x80"}, {Key: "k", Value: "\xc3\x28"}},
		"multi-KiB value":  {{Key: "k", Value: strings.Repeat("0123456789abcdef", 1000)}},
		"three batches":    many,
	} {
		stream := EncodeShard(pairs)
		got, err := DecodeShard(stream)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(got) != len(pairs) || len(pairs) > 0 && !reflect.DeepEqual(got, pairs) {
			t.Fatalf("%s: %d pairs back, %d in", name, len(got), len(pairs))
		}
	}
}

// TestShardPairsRejectMalformedLayout: a pair batch that disagrees with
// itself behind a valid seal is a torn frame — transient, so the reducer
// reports the shard lost and its map re-runs — and sizes nothing from a
// count it could not trust.
func TestShardPairsRejectMalformedLayout(t *testing.T) {
	var gobbed bytes.Buffer // the batch shape before this one
	if err := gob.NewEncoder(&gobbed).Encode([]Pair{{Key: "k", Value: "v"}}); err != nil {
		t.Fatal(err)
	}
	end := dfs.SealShard(nil)
	for name, payload := range map[string][]byte{
		"empty batch":              uvarints(0),
		"count cut short":          {0x80},
		"count not minimal":        {0x81, 0x00, 0x01, 'k', 0x01, 'v'},
		"count beyond the payload": uvarints(1 << 20),
		"count past its pairs":     append(uvarints(2, 1), "k\x01v"...),
		"key cut short":            append(uvarints(1, 5), "ab"...),
		"length not minimal":       append(uvarints(1), 0x81, 0x00, 'k', 0x01, 'v'),
		"value missing":            append(uvarints(1, 1), 'k'),
		"trailing byte":            append(uvarints(1, 1), "k\x01vx"...),
		"gob payload":              gobbed.Bytes(),
	} {
		stream := append(dfs.SealShard(payload), end...)
		var got []Pair
		var err error
		if n := allocBytes(20, func() { got, err = DecodeShard(stream) }); n > 4<<10 {
			t.Errorf("%s: a rejected batch allocated %d bytes", name, n)
		}
		var torn *dfs.TornShardError
		if !errors.As(err, &torn) || !fault.IsTransient(err) {
			t.Errorf("%s: DecodeShard = %v, %v; want a transient *dfs.TornShardError", name, got, err)
		}
	}
}

// FuzzDecodeBlockFrame: for every shape the decoder never panics, rejects
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
	f.Add(blockFrameOf(textTag, uvarints(2, 1<<63), []byte("a"), uvarints(1<<63), []byte("abc")))
	f.Add(blockFrameOf(textTag, []byte{0x82, 0x00}, str("ab"), str("c")))
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
	for _, regs := range [][]geom.Region{
		{geom.RegionOf(geom.Polygon{Vertices: []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 0, Y: 5}}})},
		{{}, {Rings: []geom.Polygon{{Vertices: []geom.Point{{X: math.Copysign(0, -1), Y: 1}}}, {}, {Vertices: []geom.Point{{X: 2, Y: 2}, {X: 4, Y: 3}}}}}},
	} {
		frame := regionsFrame(f, regs)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(blockFrameOf(regionsTag, uvarints(2), le64(1, 2, 3, 4, 5, 6, 7, 8), uvarints(1), str("1,2")))
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
		if again := dfs.EncodeBlockFrame(b); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, again)
		}
		// What the frame says of its block's text holds up when the text
		// is produced — and producing it sizes a buffer from that number.
		var text int64
		for _, r := range b.Records() {
			text += int64(len(r)) + 1
		}
		if payload, _ := dfs.UnsealShard(frame); payload[0] != dfs.FrameColumn && text != b.Bytes {
			t.Fatalf("text block of %d bytes says Bytes = %d", text, b.Bytes)
		}
		if rects, err := b.Bounds(); err == nil && len(rects) != b.NumRecords() {
			t.Fatalf("%d rects for %d records", len(rects), b.NumRecords())
		}
		if len(b.Records()) != b.NumRecords() {
			t.Fatalf("%d records, NumRecords %d", len(b.Records()), b.NumRecords())
		}
	})
}

// wireMessages are the args and reply of each of the ten methods, in
// method order: Register, Heartbeat, GetTask, TaskDone, FetchChunk,
// ReadBlock, PushBlock, DropJob, ExecRange, ExecKNN.
var wireMessages = []WireMessage{
	new(RegisterArgs), new(RegisterReply),
	new(HeartbeatArgs), new(HeartbeatReply),
	new(GetTaskArgs), new(TaskAssignment),
	new(TaskDoneArgs), new(TaskDoneReply),
	new(FetchChunkArgs), new(FetchChunkReply),
	new(ReadBlockArgs), new(ReadBlockReply),
	new(PushBlockArgs), new(PushBlockReply),
	new(DropJobArgs), new(DropJobReply),
	new(ExecRangeArgs), new(ExecRangeReply),
	new(ExecKNNArgs), new(ExecKNNReply),
}

// wireSamples are values that exercise every message's layout: zero
// values, nil and empty slices and maps, a nil Meta and an empty one, NaN
// and ±Inf floats, negative and extreme integers, non-UTF-8 strings.
func wireSamples() []WireMessage {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -math.MaxFloat64, 0.1 + 0.2}
	meta := &WireSplitMeta{
		Partition:  "p7",
		MBR:        geom.Rect{MinX: math.Inf(-1), MinY: -1, MaxX: math.Inf(1), MaxY: math.NaN()},
		ContentMBR: geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4},
		Tag:        "left",
		Blocks: []WireBlockRef{
			{ID: 3, Partition: "p7", Holders: []string{"127.0.0.1:7001", "127.0.0.1:7002"}},
			{ID: -1, Extra: true, Holders: []string{}},
			{},
		},
	}
	return []WireMessage{
		&RegisterArgs{},
		&RegisterArgs{Addr: "127.0.0.1:7070", PID: math.MaxInt32, CanServe: true},
		&RegisterReply{},
		&RegisterReply{WorkerID: 42, HeartbeatEvery: time.Millisecond, Lease: -time.Hour},
		&HeartbeatArgs{},
		&HeartbeatArgs{WorkerID: math.MinInt64},
		&HeartbeatReply{},
		&HeartbeatReply{OK: true, Epochs: map[string]int64{}},
		&HeartbeatReply{OK: true, Epochs: map[string]int64{"": 0, "a": -1, "pts": math.MaxInt64, "\xff": 1}},
		&GetTaskArgs{},
		&GetTaskArgs{WorkerID: math.MaxInt64},
		&TaskAssignment{},
		&TaskAssignment{
			DispatchID: 1, Phase: TaskMap, JobID: 2, Task: 3, Attempt: 1 << 20, JobKind: "range",
			Conf: map[string]string{"": "v", "k": "", "rect": "0,0,1,1"}, NumShards: 4, Sources: []ShardSource{}, Meta: meta,
		},
		&TaskAssignment{
			Phase: TaskReduce, Conf: map[string]string{}, NumShards: -1,
			Sources: []ShardSource{{Task: 1, Attempt: 2, Addr: "127.0.0.1:1"}, {}}, Meta: &WireSplitMeta{},
		},
		&TaskDoneArgs{},
		&TaskDoneArgs{LostMaps: []int{}, Out: []string{}, Selected: []Selection{}, Metrics: obs.TaskMetricsWire{Counters: map[string]int64{}, Observations: map[string][]float64{}}},
		&TaskDoneArgs{Selected: []Selection{
			{Block: 2, IDs: []int{0, 1, 2, 300, 1 << 40}},
			{Block: -1, IDs: []int{math.MaxInt - 1}},
			{IDs: []int{}},
			{Block: 1 << 20, IDs: []int{0}},
		}},
		&TaskDoneArgs{
			WorkerID: 1, DispatchID: math.MaxInt64, Err: "boom", Transient: true, LostMaps: []int{0, -3, 1 << 40},
			Out: []string{"", "1,2", "\xff\xfe", strings.Repeat("r", 300)},
			Metrics: obs.TaskMetricsWire{
				Counters:     map[string]int64{"a": 1, "b": -2, "": math.MinInt64},
				Observations: map[string][]float64{"h": odd, "e": nil, "f": {}},
			},
			LocalReads: 4, LocalBytes: 5, RemoteReads: 6, RemoteBytes: -7,
		},
		&TaskDoneReply{},
		&FetchChunkArgs{},
		&FetchChunkArgs{JobID: 1, Task: 2, Attempt: 3, Reduce: 4, Offset: -1, MaxBytes: -5},
		&FetchChunkReply{},
		&FetchChunkReply{Data: []byte{}, EOF: true},
		&FetchChunkReply{Data: []byte("SHRD\x00\xff")},
		&ReadBlockArgs{},
		&ReadBlockArgs{ID: 5},
		&ReadBlockReply{},
		&ReadBlockReply{Frame: bytes.Repeat([]byte{0, 1, 0xff}, 5000)},
		&PushBlockArgs{},
		&PushBlockArgs{ID: 7, Frame: []byte{0}},
		&PushBlockReply{},
		&DropJobArgs{},
		&DropJobArgs{JobID: -1},
		&DropJobReply{},
		&ExecRangeArgs{},
		&ExecRangeArgs{File: "pts", Epoch: 3, Meta: meta, Query: geom.Rect{MinX: odd[0], MinY: odd[1], MaxX: odd[2], MaxY: odd[3]}},
		&ExecRangeReply{},
		&ExecRangeReply{Keys: []float64{}, Frag: []byte{}},
		&ExecRangeReply{Keys: odd, Frag: []byte(`{"x":1,"y":2},{"x":3,"y":4}`), Counts: []int64{9, 2}},
		&ExecKNNArgs{},
		&ExecKNNArgs{File: "pts", Epoch: -2, Meta: meta, Q: geom.Point{X: math.NaN(), Y: math.Inf(-1)}, K: 7},
		&ExecKNNReply{},
		&ExecKNNReply{Cands: []WireKNNCandidate{}},
		&ExecKNNReply{Cands: []WireKNNCandidate{
			{Dist: math.Inf(1), P: geom.Point{X: 1, Y: 2}},
			{Dist: math.NaN(), P: geom.Point{X: math.Copysign(0, -1), Y: 0}},
			{P: geom.Point{X: math.NaN(), Y: math.Inf(-1)}},
		}, Counts: []int64{2, 3}},
		// Calls naming 1, 2 and 4 partitions (Meta, then 0, 1 and 3 More
		// entries), with and without merge keys, and their answers' counts.
		&ExecRangeArgs{File: "pts", Epoch: 3, Meta: meta, More: []*WireSplitMeta{}, Query: geom.Rect{MaxX: 1, MaxY: 1}, Keys: true},
		&ExecRangeArgs{File: "pts", Epoch: 3, Meta: meta, More: []*WireSplitMeta{{}}, Keys: false},
		&ExecRangeArgs{File: "pts", Epoch: 3, Meta: &WireSplitMeta{}, More: []*WireSplitMeta{meta, {Partition: "p8"}, meta}, Keys: true},
		&ExecRangeReply{Frag: []byte(`{"x":1,"y":2}`), Counts: []int64{0, 0, 7, 1, math.MaxInt64, 0}},
		&ExecRangeReply{Keys: []float64{1, 2}, Frag: []byte(`{"x":1,"y":2}`), Counts: []int64{}},
		&ExecKNNArgs{File: "pts", Meta: meta, More: []*WireSplitMeta{{Tag: "x"}}, K: 1},
		&ExecKNNArgs{File: "pts", Meta: meta, More: []*WireSplitMeta{meta, meta, {}}, K: 3},
		&ExecKNNReply{Cands: []WireKNNCandidate{{Dist: 1, P: geom.Point{X: 0, Y: math.Copysign(0, -1)}}}, Counts: []int64{5, 0, 6, 1, -1, 0, 0, 0}},
	}
}

// encode is m's body, appended to dst.
func encode(dst []byte, m WireMessage) []byte {
	var c wirefmt.Codec
	c.Encode(dst)
	m.wire(&c)
	return c.Encoded()
}

// decodeInto decodes body into m.
func decodeInto(m WireMessage, body []byte) error {
	var c wirefmt.Codec
	c.Decode(body)
	m.wire(&c)
	return c.Done()
}

// decodeAs decodes body as a fresh message of m's type.
func decodeAs(m WireMessage, body []byte) (WireMessage, error) {
	v := reflect.New(reflect.TypeOf(m).Elem()).Interface().(WireMessage)
	return v, decodeInto(v, body)
}

// wireEqual is reflect.DeepEqual as the wire sees values: floats compare
// by their bits (so NaN equals NaN), and a nil slice or map equals an
// empty one — the wire does not tell them apart, and nothing reading a
// message does either.
func wireEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return wireEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !wireEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !wireEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !wireEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestWireRoundTrip: every message decodes back to what was encoded, and
// re-encodes to the same bytes — also when decoded into a value that held
// a different message before, since decoding sets every field (a pooled
// range reply relies on it).
func TestWireRoundTrip(t *testing.T) {
	samples := wireSamples()
	reused := map[reflect.Type]WireMessage{}
	for _, in := range samples { // the last sample of each type, decoded
		v, err := decodeAs(in, encode(nil, in))
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		reused[reflect.TypeOf(v)] = v
	}
	for _, in := range samples {
		typ := reflect.TypeOf(in)
		body := encode(nil, in)
		fresh, err := decodeAs(in, body)
		if err != nil {
			t.Errorf("%T %+v: decode: %v", in, in, err)
			continue
		}
		if err := decodeInto(reused[typ], body); err != nil {
			t.Errorf("%T %+v: decode into a used value: %v", in, in, err)
			continue
		}
		for how, out := range map[string]WireMessage{"fresh": fresh, "used": reused[typ]} {
			if !wireEqual(reflect.ValueOf(in), reflect.ValueOf(out)) {
				t.Errorf("%T decoded into a %s value:\n got %+v\nwant %+v", in, how, out, in)
			}
			if again := encode(nil, out); !bytes.Equal(again, body) {
				t.Errorf("%T decoded into a %s value re-encodes to %x, was %x", in, how, again, body)
			}
		}
		if got := encode([]byte("head"), in); !bytes.Equal(got, append([]byte("head"), body...)) {
			t.Errorf("%T: encoding does not append: %x", in, got)
		}
	}
	covered := map[reflect.Type]bool{}
	for _, in := range samples {
		covered[reflect.TypeOf(in)] = true
	}
	for _, m := range wireMessages {
		if !covered[reflect.TypeOf(m)] {
			t.Errorf("%T has no round-trip sample", m)
		}
	}
}

// allocBytes is what f allocates per run, on average over runs.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWireRejectsMalformed: a body that is not exactly one message's
// encoding — cut short anywhere, followed by a byte, or wrong inside —
// fails to decode, without panicking and without sizing an allocation by
// a count it could not trust.
func TestWireRejectsMalformed(t *testing.T) {
	for _, in := range wireSamples() {
		body := encode(nil, in)
		for n := 0; n < len(body); n++ {
			if _, err := decodeAs(in, body[:n]); err == nil {
				t.Errorf("%T: accepted the first %d of %d bytes", in, n, len(body))
			}
		}
		if _, err := decodeAs(in, append(body, 0)); err == nil {
			t.Errorf("%T: accepted a trailing byte", in)
		}
	}
	// Counts of 1<<20 are ones a decoder could allocate for without
	// failing — what the allocation bound below catches. What any field of
	// a kind rejects (a bad varint or bool, a count beyond the payload,
	// map keys out of order) is internal/wirefmt's test; these rows are
	// the ones a message's own shape makes.
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	noMeta := []byte{0}
	// done is a TaskDoneArgs body up to its selections: every field zero.
	done := cat(uvarints(0, 0), str(""), []byte{0}, uvarints(0, 0, 0, 0, 0, 0, 0, 0))
	for name, tc := range map[string]struct {
		msg  WireMessage
		body []byte
	}{
		"Meta presence beyond 1":          {new(ExecRangeArgs), cat(str("f"), uvarints(0), []byte{2}, le64(0, 0, 0, 0))},
		"blocks count beyond the payload": {new(ExecRangeArgs), cat(str("f"), uvarints(0), []byte{1}, str("p"), le64(0, 0, 0, 0, 0, 0, 0, 0), str(""), uvarints(1<<20), le64(0, 0, 0, 0))},
		"holders count beyond":            {new(ExecKNNArgs), cat(str("f"), uvarints(0), []byte{1}, str("p"), le64(0, 0, 0, 0, 0, 0, 0, 0), str(""), uvarints(1, 0), str(""), []byte{0}, uvarints(1<<20), le64(0, 0), uvarints(0))},
		"candidates count beyond":         {new(ExecKNNReply), cat(uvarints(1<<20), le64(1, 2, 3), uvarints(0))},
		"More count beyond":               {new(ExecRangeArgs), cat(str("f"), uvarints(0), noMeta, uvarints(1<<20), []byte{1}, str("p"), le64(0, 0, 0, 0, 0, 0, 0, 0), str(""), uvarints(0), le64(0, 0, 0, 0), []byte{0})},
		"More element absent":             {new(ExecKNNArgs), cat(str("f"), uvarints(0), noMeta, uvarints(1), noMeta, le64(0, 0), uvarints(0))},
		"counts beyond":                   {new(ExecRangeReply), cat(uvarints(0, 0, 1<<20, 0))},
		"candidate point cut short":       {new(ExecKNNReply), cat(uvarints(1), le64(1, 2), uvarints(0))},
		"epochs count beyond":             {new(HeartbeatReply), cat([]byte{1}, uvarints(1<<20), str("a"), uvarints(1))},
		"sources count beyond":            {new(TaskAssignment), cat(uvarints(0), str(""), uvarints(0, 0, 0), str(""), uvarints(0, 0, 1<<20), noMeta)},
		"lost maps count beyond":          {new(TaskDoneArgs), cat(uvarints(0, 0), str(""), []byte{0}, uvarints(1<<20, 0, 0, 0, 0, 0, 0, 0))},
		"out count beyond":                {new(TaskDoneArgs), cat(uvarints(0, 0), str(""), []byte{0}, uvarints(0, 1<<20, 0, 0, 0, 0, 0, 0))},
		"observation values beyond":       {new(TaskDoneArgs), cat(uvarints(0, 0), str(""), []byte{0}, uvarints(0, 0, 0, 1), str("h"), uvarints(1<<20), le64(1), uvarints(0, 0, 0, 0))},
		"selections count beyond":         {new(TaskDoneArgs), cat(done, uvarints(1<<20, 0, 0, 0))},
		"selected ids count beyond":       {new(TaskDoneArgs), cat(done, uvarints(1, 0, 1<<20, 1, 2))},
		"selected ids not ascending":      {new(TaskDoneArgs), cat(done, uvarints(1, 0, 3, 1, 1, 0))},
		"selected id beyond an int":       {new(TaskDoneArgs), cat(done, uvarints(1, 0, 2, 1, math.MaxUint64))},
		"selections cut short":            {new(TaskDoneArgs), cat(done, uvarints(2, 0, 1, 1))},
	} {
		var err error
		if n := allocBytes(20, func() { _, err = decodeAs(tc.msg, tc.body) }); n > 4<<10 {
			t.Errorf("%s: a rejected %T allocated %d bytes", name, tc.msg, n)
		}
		if err == nil {
			t.Errorf("%s: %T accepted %x", name, tc.msg, tc.body)
		}
	}
}

// FuzzDecodeWire: for every message type, and for a spill frame's pair
// batch, decoding never panics, and a body it accepts is the one encoding
// of what it decoded to.
func FuzzDecodeWire(f *testing.F) {
	for _, in := range wireSamples() {
		body := encode(nil, in)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add(encodePairs([]Pair{{Key: "k", Value: "v"}, {}}))
	f.Add(uvarints(1 << 40))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range wireMessages {
			v, err := decodeAs(m, body)
			if err != nil {
				continue
			}
			if again := encode(nil, v); !bytes.Equal(again, body) {
				t.Fatalf("%T: accepted %x re-encodes to %x", m, body, again)
			}
		}
		if pairs, err := decodePairs(body); err == nil {
			if again := encodePairs(pairs); !bytes.Equal(again, body) {
				t.Fatalf("pair batch: accepted %x re-encodes to %x", body, again)
			}
		}
	})
}

// encodePairs is one batch's payload.
func encodePairs(pairs []Pair) []byte {
	var c wirefmt.Codec
	pairBatch(&c, &pairs)
	return c.Encoded()
}
