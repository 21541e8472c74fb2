package dfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// Block frames: how a block crosses the data plane — pushed to a worker's
// replica store, served peer to peer, read from the master. A frame is one
// SealShard frame — the CRC frame of spill streams, so a replica torn by a
// dying worker is detected exactly like a torn spill — whose payload opens
// with a tag naming one of two shapes. Which one is a property of the
// block, not a choice of the sender:
//
//	'P'  point column, for a block the writer marked as nothing but points
//	     (Writer.WritePoint) or one opened from such a frame:
//	       uvarint  point count n
//	       uvarint  the block's Bytes (its text size, newline per record)
//	       16 B × n X then Y of each point, little-endian IEEE-754 bits
//	'T'  text, for every other block (regions, job outputs):
//	       uvarint  record count n
//	       uvarint  × n  record byte lengths, in record order
//	       bytes    the records' text, concatenated (the arena)
//
// A column point takes 16 bytes where its text takes about 39 on the wire
// and two ParseFloat calls at the reader, per map attempt; the reader of a
// column parses nothing. Varints are minimal-length, a text table holds
// exactly n entries whose lengths sum to exactly the arena, a column holds
// exactly 16·n bytes, so a block has one encoding and an accepted frame
// re-encodes to the same bytes. There is no version field: replicas live
// in a worker's scratch directory and never outlast the binary that wrote
// them.
const (
	FrameColumn byte = 'P'
	FrameText   byte = 'T'
)

// pointSize is one point of a column: two float64s.
const pointSize = 16

// A point's record is at least "0,0" and at most geomio.MaxPointLen, plus
// the newline Bytes counts: what a column frame may claim as its block's
// Bytes, per point.
const minPointBytes, maxPointBytes = 4, geomio.MaxPointLen + 1

// putColumn lays pts out as column bytes; dst holds exactly pointSize
// bytes per point.
func putColumn(dst []byte, pts []geom.Point) {
	for i, p := range pts {
		binary.LittleEndian.PutUint64(dst[i*pointSize:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(dst[i*pointSize+8:], math.Float64bits(p.Y))
	}
}

// EncodeBlockFrame seals b for the data plane in the shape b calls for.
// A marked block's column is what its text parses to. keep says whether
// that parse goes through the block's Points cache: a replica push is
// one-shot work — once per block — and must not leave a decoded copy of
// the file system resident on the master, while the master's ReadBlock is
// asked for the same block again by every map attempt that reaches no
// replica, and parses once. A marked block whose text does not parse was
// written in breach of WritePoint's contract and ships as the text it is.
func EncodeBlockFrame(b *Block, keep bool) []byte {
	switch {
	case b.column:
		return encodeColumn(b.col, b.Bytes)
	case b.points:
		var pts []geom.Point
		var err error
		if keep {
			pts, err = b.Points()
		} else {
			pts, err = geomio.DecodePoints(b.records)
		}
		if err == nil {
			return encodeColumn(pts, b.Bytes)
		}
	}
	return encodeText(b.records)
}

func encodeColumn(pts []geom.Point, bytes int64) []byte {
	frame := make([]byte, shardHeaderSize, shardHeaderSize+1+2*binary.MaxVarintLen64+pointSize*len(pts))
	frame = append(frame, FrameColumn)
	frame = binary.AppendUvarint(frame, uint64(len(pts)))
	frame = binary.AppendUvarint(frame, uint64(bytes))
	col := len(frame)
	frame = frame[:col+pointSize*len(pts)]
	putColumn(frame[col:], pts)
	sealFrame(frame)
	return frame
}

func encodeText(records []string) []byte {
	arena := 0
	for _, r := range records {
		arena += len(r)
	}
	frame := make([]byte, shardHeaderSize, shardHeaderSize+1+binary.MaxVarintLen64+2*len(records)+arena)
	frame = append(frame, FrameText)
	frame = binary.AppendUvarint(frame, uint64(len(records)))
	for _, r := range records {
		frame = binary.AppendUvarint(frame, uint64(len(r)))
	}
	for _, r := range records {
		frame = append(frame, r...)
	}
	sealFrame(frame)
	return frame
}

// DecodeBlockFrame verifies a replica frame and opens the block in it,
// sealed, without ID, placement or partition (the reader knows those from
// the split descriptor). A column frame opens as a column block: one CRC
// pass over the frame, one over the column for the block's own seal, and
// the points copied out. A text frame opens as a text block whose records
// are substrings of one copy of the arena. Either way nothing returned
// aliases the frame, so the caller may reuse its buffer. Everything wrong
// with a frame — a failed seal, an unknown tag, a count or length that is
// not a minimal varint or overruns the payload, sizes that do not add up
// — is a *TornShardError, which is transient: the reader falls through to
// the next replica holder.
func DecodeBlockFrame(frame []byte) (*Block, error) {
	payload, err := UnsealShard(frame)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, &TornShardError{Reason: "block frame: no shape tag"}
	}
	switch payload[0] {
	case FrameColumn:
		return decodeColumn(payload[1:])
	case FrameText:
		return decodeText(payload[1:])
	}
	return nil, &TornShardError{Reason: fmt.Sprintf("block frame: unknown shape tag %#x", payload[0])}
}

func decodeColumn(payload []byte) (*Block, error) {
	count, payload, ok := cutUvarint(payload)
	if !ok {
		return nil, &TornShardError{Reason: "block frame: bad point count"}
	}
	bytes, payload, ok := cutUvarint(payload)
	// The count is checked against the bytes actually present before
	// anything is allocated from it, and the claimed text size against the
	// count, so a reader may size a buffer from Bytes.
	if !ok || count != uint64(len(payload)/pointSize) || len(payload)%pointSize != 0 {
		return nil, &TornShardError{Reason: fmt.Sprintf("block frame: %d column bytes for %d points", len(payload), count)}
	}
	if bytes < minPointBytes*count || bytes > maxPointBytes*count {
		return nil, &TornShardError{Reason: fmt.Sprintf("block frame: %d text bytes claimed for %d points", bytes, count)}
	}
	col := make([]geom.Point, count)
	for i := range col {
		col[i].X = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*pointSize:]))
		col[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*pointSize+8:]))
	}
	// The seal checksumColumn would compute, taken from the bytes in hand.
	return &Block{Bytes: int64(bytes), column: true, col: col, crc: crc32.ChecksumIEEE(payload)}, nil
}

func decodeText(payload []byte) (*Block, error) {
	count, payload, ok := cutUvarint(payload)
	// Every table entry takes at least a byte, which bounds the count by
	// the bytes actually present before anything is allocated from it.
	if !ok || count > uint64(len(payload)) {
		return nil, &TornShardError{Reason: "block frame: bad record count"}
	}
	// First pass: walk the length table, checking each entry against the
	// bytes left, to find where the arena starts and that it is exactly as
	// long as the table says.
	table := payload
	var sum uint64
	for i := uint64(0); i < count; i++ {
		var n uint64
		n, payload, ok = cutUvarint(payload)
		if room := uint64(len(payload)); !ok || sum > room || n > room-sum {
			return nil, &TornShardError{Reason: fmt.Sprintf("block frame: bad length of record %d", i)}
		}
		sum += n
	}
	if sum != uint64(len(payload)) {
		return nil, &TornShardError{Reason: fmt.Sprintf("block frame: record lengths total %d bytes, arena holds %d", sum, len(payload))}
	}
	// Second pass: the table is known good; cut the arena along it.
	arena := string(payload)
	records := make([]string, count)
	for i := range records {
		n, w := binary.Uvarint(table)
		table = table[w:]
		records[i], arena = arena[:n], arena[n:]
	}
	return NewBlockFromRecords("", records), nil
}

// cutUvarint splits one minimal-length uvarint off the front of b. A
// truncated, overlong or zero-padded encoding is not ok.
func cutUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}
