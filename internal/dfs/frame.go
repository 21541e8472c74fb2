package dfs

import (
	"encoding/binary"
	"hash/crc32"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/wirefmt"
)

// Block frames: how a block crosses the data plane — pushed to a worker's
// replica store, served peer to peer, read from the master. A frame is one
// SealShard frame — the CRC frame of spill streams, so a replica torn by a
// dying worker is detected exactly like a torn spill — whose payload opens
// with a tag naming one of three shapes. Which one is a property of the
// block, not a choice of the sender:
//
//	'P'  point column, for a block of points (Writer.WritePoints: a loaded
//	     points file, a range job's matches) or one opened from such a
//	     frame:
//	       uvarint  point count n
//	       uvarint  the block's Bytes (its text size, newline per record)
//	       16 B × n X then Y of each point, little-endian IEEE-754 bits
//	'R'  regions, for a block the writer marked as nothing but regions
//	     (Writer.WriteRegions) or one opened from such a frame:
//	       uvarint  rect count n
//	       32 B × n each record's MBR, wirefmt's Rect
//	       then the records as the text shape lays them out, n of them
//	'T'  text, for every other block (join and CG outputs, copies):
//	       uvarint  record count n
//	       n ×      uvarint record length, then the record
//
// A column point takes 16 bytes where its text takes about 39 on the wire
// and two ParseFloat calls at the reader, per map attempt; the reader of a
// column parses nothing. A region keeps its text, which is what a join
// writes out, and its reader parses nothing to learn its MBR. The frame's
// seal covers the rects; the block's own CRC is over its text alone, as a
// text block's is. The payload is laid out and checked by
// internal/wirefmt, the layout of RPC bodies too (blockFrame.wire), so a
// block has one encoding and an accepted frame re-encodes to the same
// bytes. There is no version field: replicas live in a worker's scratch
// directory and never outlast the binary that wrote them.
const (
	FrameColumn  byte = 'P'
	FrameRegions byte = 'R'
	FrameText    byte = 'T'
)

// pointSize is one point of a column: two float64s; rectSize one MBR.
const pointSize, rectSize = 16, 32

// A point's record is at least "0,0" and at most geomio.MaxPointLen, plus
// the newline Bytes counts: what a column frame may claim as its block's
// Bytes, per point.
const minPointBytes, maxPointBytes = 4, geomio.MaxPointLen + 1

// blockFrame is a frame's payload: the tag, then the fields of its shape.
type blockFrame struct {
	tag     byte
	pts     []geom.Point // column
	bytes   uint64       // column: the block's Bytes
	rects   []geom.Rect  // regions
	records []string     // text, regions
}

func (f *blockFrame) wire(c *wirefmt.Codec) {
	c.Byte(&f.tag)
	switch f.tag {
	case FrameColumn:
		wirefmt.Len(c, &f.pts, pointSize)
		c.Uvarint(&f.bytes)
		c.Points(f.pts)
	case FrameRegions:
		wirefmt.Slice(c, &f.rects, rectSize, (*wirefmt.Codec).Rect)
		c.Strings(&f.records)
		if len(f.records) != len(f.rects) {
			c.Fail("%d records for %d rects", len(f.records), len(f.rects))
		}
	case FrameText:
		c.Strings(&f.records)
	default:
		c.Fail("unknown shape tag %#x", f.tag)
	}
}

// EncodeBlockFrame seals b for the data plane in the shape b calls for: a
// column because b is one, regions because b is region-marked, text
// otherwise. Nothing is parsed or formatted.
func EncodeBlockFrame(b *Block) []byte {
	switch {
	case b.column:
		return sealBlockFrame(blockFrame{tag: FrameColumn, pts: b.col, bytes: uint64(b.Bytes)})
	case b.regions:
		return sealBlockFrame(blockFrame{tag: FrameRegions, rects: b.rects, records: b.records})
	}
	return sealBlockFrame(blockFrame{tag: FrameText, records: b.records})
}

// sealBlockFrame lays f out behind room for the seal and stamps it, so
// the payload is written once.
func sealBlockFrame(f blockFrame) []byte {
	size := 1 + 2*binary.MaxVarintLen64 + pointSize*len(f.pts) + rectSize*len(f.rects) + 2*len(f.records)
	for _, r := range f.records {
		size += len(r)
	}
	var c wirefmt.Codec
	c.Encode(make([]byte, shardHeaderSize, shardHeaderSize+size))
	f.wire(&c)
	frame := c.Encoded()
	sealFrame(frame)
	return frame
}

// DecodeBlockFrame verifies a replica frame and opens the block in it,
// sealed, without ID, placement or partition (the reader knows those from
// the split descriptor). A column frame opens as a column block: one CRC
// pass over the frame, one over the column for the block's own seal, and
// the points copied out. A text frame opens as a text block whose records
// are substrings of one copy of the payload; a regions frame as the same,
// region-marked and holding the rects. Either way nothing returned
// aliases the frame, so the caller may reuse its buffer. Everything wrong
// with a frame — a failed seal, an unknown tag, a layout wirefmt rejects,
// a column claiming a text size its points cannot have — is a
// *TornShardError, which is transient: the reader falls through to the
// next replica holder.
func DecodeBlockFrame(frame []byte) (*Block, error) {
	payload, err := UnsealShard(frame)
	if err != nil {
		return nil, err
	}
	var f blockFrame
	var c wirefmt.Codec
	c.Decode(payload)
	f.wire(&c)
	// A reader may size a buffer from Bytes, so it is held to the count.
	if n := uint64(len(f.pts)); f.bytes < minPointBytes*n || f.bytes > maxPointBytes*n {
		c.Fail("%d text bytes claimed for %d points", f.bytes, n)
	}
	if err := c.Done(); err != nil {
		return nil, &TornShardError{Reason: "block frame: " + err.Error()}
	}
	if f.tag != FrameColumn {
		b := NewBlockFromRecords("", f.records)
		if f.tag == FrameRegions {
			b.regions, b.rects = true, f.rects
		}
		return b, nil
	}
	// The seal checksumColumn would compute, taken from the bytes in hand:
	// an accepted column is the payload's tail.
	column := payload[len(payload)-pointSize*len(f.pts):]
	return &Block{Bytes: int64(f.bytes), column: true, col: f.pts, crc: crc32.ChecksumIEEE(column)}, nil
}
