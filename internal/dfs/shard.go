package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Intermediate-shard framing. Workers spill each map task's per-reducer
// shard to local disk and serve it to reducers over RPC; a worker that is
// SIGKILLed mid-write leaves a torn file behind. Every spill is therefore
// wrapped in a self-verifying frame — magic, payload length, CRC32 (IEEE)
// over the payload — so a torn or truncated shard is detected on read and
// surfaces as a lost shard (triggering a map re-issue) rather than as
// silently corrupt reduce input. The same integrity posture as block
// checksums (checksum.go), applied to the shuffle path.

// shardMagic marks the start of a sealed shard frame.
var shardMagic = [4]byte{'S', 'H', 'R', 'D'}

// shardHeaderSize is the frame overhead: magic + payload length + CRC32.
const shardHeaderSize = 4 + 8 + 4

// ErrTornShard is the sentinel wrapped by every shard-frame integrity
// failure: bad magic, truncation, or CRC mismatch.
var ErrTornShard = errors.New("dfs: torn shard frame")

// TornShardError reports a shard frame that failed verification.
type TornShardError struct {
	Reason string
}

// Error renders the failure.
func (e *TornShardError) Error() string {
	return fmt.Sprintf("dfs: torn shard frame: %s", e.Reason)
}

// Unwrap ties the error to the ErrTornShard sentinel.
func (e *TornShardError) Unwrap() error { return ErrTornShard }

// Transient marks torn shards retryable for the scheduler: the master
// re-runs the producing map task, so the fetch is worth re-attempting.
func (e *TornShardError) Transient() bool { return true }

// SealShard wraps a shard payload in its integrity frame.
func SealShard(payload []byte) []byte {
	out := make([]byte, shardHeaderSize+len(payload))
	copy(out[shardHeaderSize:], payload)
	sealFrame(out)
	return out
}

// sealFrame stamps the header of a frame built in place: everything past
// the first shardHeaderSize bytes is the payload.
func sealFrame(frame []byte) {
	payload := frame[shardHeaderSize:]
	copy(frame[:4], shardMagic[:])
	binary.LittleEndian.PutUint64(frame[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(payload))
}

// UnsealShard verifies a shard frame and returns its payload, or a
// *TornShardError if the frame is truncated, mislabeled or corrupt.
func UnsealShard(frame []byte) ([]byte, error) {
	if len(frame) < shardHeaderSize {
		return nil, &TornShardError{Reason: fmt.Sprintf("frame is %d bytes, header needs %d", len(frame), shardHeaderSize)}
	}
	if [4]byte(frame[:4]) != shardMagic {
		return nil, &TornShardError{Reason: "bad magic"}
	}
	n := binary.LittleEndian.Uint64(frame[4:12])
	payload := frame[shardHeaderSize:]
	if uint64(len(payload)) != n {
		return nil, &TornShardError{Reason: fmt.Sprintf("payload is %d bytes, header says %d", len(payload), n)}
	}
	want := binary.LittleEndian.Uint32(frame[12:16])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &TornShardError{Reason: fmt.Sprintf("crc mismatch: stored %08x, read %08x", want, got)}
	}
	return payload, nil
}

// maxShardFrame bounds a declared frame payload; a header claiming more
// is damage, not data (no spill or block frame approaches a terabyte).
const maxShardFrame = 1 << 40

// PeekShardFrame inspects the start of buf for a sealed frame header and
// returns the total byte length of that frame (header + payload). It
// returns 0 with no error when buf holds less than a full header — the
// streaming-read case, where the caller needs more bytes — and a
// *TornShardError when the bytes present cannot be a frame at all.
func PeekShardFrame(buf []byte) (int, error) {
	if len(buf) < shardHeaderSize {
		return 0, nil
	}
	if [4]byte(buf[:4]) != shardMagic {
		return 0, &TornShardError{Reason: "bad magic"}
	}
	n := binary.LittleEndian.Uint64(buf[4:12])
	if n > maxShardFrame {
		return 0, &TornShardError{Reason: fmt.Sprintf("frame header claims %d payload bytes", n)}
	}
	return shardHeaderSize + int(n), nil
}

// NewBlockFromRecords builds a sealed, checksummed text block holding the
// given records, outside any file — what a text frame opens as
// (DecodeBlockFrame), sealed so the reader's checksum scrub covers shipped
// blocks too. The block carries no ID or data-node placement and no point
// mark, whatever its records look like.
func NewBlockFromRecords(partition string, records []string) *Block {
	b := &Block{Partition: partition, records: records}
	for _, r := range records {
		b.Bytes += int64(len(r)) + 1 // newline accounting, as the writer does
	}
	b.seal()
	return b
}
