package mapreduce

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
)

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

func TestBlockFrameRoundTrip(t *testing.T) {
	for name, recs := range map[string][]string{
		"empty block":    nil,
		"empty record":   {""},
		"empty among":    {"1,2", "", "", "3,4", ""},
		"multi-KiB":      {"a", strings.Repeat("0123456789abcdef", 1000), "b"},
		"long lengths":   {strings.Repeat("x", 127), strings.Repeat("y", 128), strings.Repeat("z", 16384)},
		"non-UTF-8":      {"\xff\xfe\x00", "\x80", "ok", "\xc3\x28"},
		"looks like one": {"\x02\x01\x01ab"},
	} {
		frame, err := EncodeBlockFrame(recs)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeBlockFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records back, %d in", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d = %q, want %q", name, i, got[i], recs[i])
			}
		}
	}
}

// TestBlockFrameRejectsMalformedLayout: every way a payload can disagree
// with itself behind a valid CRC is a torn shard — transient, so the
// reader's ladder moves on — and none of them allocates from the number
// it could not trust.
func TestBlockFrameRejectsMalformedLayout(t *testing.T) {
	good, _ := EncodeBlockFrame([]string{"ab", "c"})
	var gobbed bytes.Buffer // the frame shape this one replaced
	if err := gob.NewEncoder(&gobbed).Encode([]string{"ab", "c"}); err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"no payload":                 blockFrameOf(),
		"count cut short":            blockFrameOf([]byte{0x80}),
		"count not minimal":          blockFrameOf([]byte{0x82, 0x00}, uvarints(2, 1), []byte("abc")),
		"count overflows":            blockFrameOf(bytes.Repeat([]byte{0xff}, 10), []byte{0x01}),
		"count beyond the payload":   blockFrameOf(uvarints(1<<62), []byte("abc")),
		"table cut short":            blockFrameOf(uvarints(3, 1, 1)),
		"length not minimal":         blockFrameOf(uvarints(2, 2), []byte{0x81, 0x00}, []byte("abc")),
		"length beyond the payload":  blockFrameOf(uvarints(2, 1<<63, 1), []byte("abc")),
		"lengths overflow together":  blockFrameOf(uvarints(2, 1<<63, 1<<63), []byte("abc")),
		"lengths exceed the arena":   blockFrameOf(uvarints(2, 2, 2), []byte("abc")),
		"trailing byte":              blockFrameOf(uvarints(2, 2, 1), []byte("abcd")),
		"bytes after an empty block": blockFrameOf(uvarints(0), []byte("x")),
		"truncated frame":            good[:len(good)-1],
		"flipped arena bit":          append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
		"gob payload":                blockFrameOf(gobbed.Bytes()),
	} {
		recs, err := DecodeBlockFrame(frame)
		var torn *dfs.TornShardError
		if !errors.As(err, &torn) || !fault.IsTransient(err) {
			t.Errorf("%s: DecodeBlockFrame = %q, %v; want a transient *dfs.TornShardError", name, recs, err)
		}
	}
}

// FuzzDecodeBlockFrame: the decoder never panics, rejects only with the
// torn-shard error the read ladder understands, sizes nothing from a
// number the frame merely claims, and accepts a frame only if it is the
// one encoding of its records.
func FuzzDecodeBlockFrame(f *testing.F) {
	for _, recs := range [][]string{nil, {""}, {"1.5,2.5", "3,4"}, {strings.Repeat("r", 300), "\xff"}} {
		frame, _ := EncodeBlockFrame(recs)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(blockFrameOf(uvarints(1<<62), []byte("abc")))
	f.Add(blockFrameOf(uvarints(2, 1<<63, 1<<63), []byte("abc")))
	f.Add(blockFrameOf([]byte{0x82, 0x00}, uvarints(2, 1), []byte("abc")))
	f.Fuzz(func(t *testing.T, frame []byte) {
		recs, err := DecodeBlockFrame(frame)
		if err != nil {
			if !errors.Is(err, dfs.ErrTornShard) {
				t.Fatalf("rejected with %v, want a torn-shard error", err)
			}
			// A seal-valid payload gets here only through a layout check;
			// re-sealing the mutated payload makes the fuzzer reach them.
			if len(frame) == 0 {
				return
			}
			recs, err = DecodeBlockFrame(dfs.SealShard(frame))
			if err != nil {
				if !errors.Is(err, dfs.ErrTornShard) {
					t.Fatalf("re-sealed: rejected with %v, want a torn-shard error", err)
				}
				return
			}
			frame = dfs.SealShard(frame)
		}
		if len(recs) > len(frame) {
			t.Fatalf("%d records out of a %d-byte frame", len(recs), len(frame))
		}
		again, err := EncodeBlockFrame(recs)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x (%v)", frame, again, err)
		}
	})
}
