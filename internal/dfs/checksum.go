package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/wirefmt"
)

// Block integrity: every block carries a CRC32 (IEEE) checksum over its
// records, computed once when the block is sealed (when the writer cuts
// to the next block, changes partition, or closes the file; when a worker
// opens it from a replica frame) — mirroring
// HDFS, which checksums blocks on write and verifies them on read. Read
// paths verify through VerifyCached, which recomputes at most once per
// block, so a block scanned by many jobs pays the CRC pass once. Only
// sealed blocks are ever reachable: a file is published whole, by its
// writer's Close. A mismatch surfaces as a *ChecksumError wrapping
// ErrChecksum; the error is transient in the fault-classification sense
// because in a replicated DFS a re-read can be served by a healthy replica.

// ErrChecksum is the sentinel wrapped by every block checksum mismatch.
var ErrChecksum = errors.New("dfs: block checksum mismatch")

// ChecksumError reports a corrupted block: the stored checksum does not
// match the block's current records.
type ChecksumError struct {
	Block BlockID
	Want  uint32 // checksum stored at write time
	Got   uint32 // checksum of the records as read
}

// Error renders the mismatch.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("dfs: block %d checksum mismatch: stored %08x, read %08x", e.Block, e.Want, e.Got)
}

// Unwrap ties the error to the ErrChecksum sentinel.
func (e *ChecksumError) Unwrap() error { return ErrChecksum }

// Transient marks checksum failures retryable for the scheduler: a
// re-read models fetching the block from another replica.
func (e *ChecksumError) Transient() bool { return true }

// crcChunk is the staging buffer of checksumRecords. It is pooled, not
// on the stack: crc32 dispatches to its kernel through a function
// variable, so any buffer handed to it escapes.
type crcChunk [4096]byte

var crcChunks = sync.Pool{New: func() any { return new(crcChunk) }}

// checksumRecords computes the CRC32 over the records as they would be
// laid out on disk (record bytes plus a newline each). Records are staged
// through a fixed buffer and fed to the CRC a few KiB at a time: one
// crc32.Update per few-dozen-byte record never leaves the table-driven
// path, while KiB-sized chunks run the vectorised kernel, and the value is
// the same since CRC32 is a function of the byte stream alone. A call
// allocates nothing (seal and VerifyCached run it once per block per map
// attempt on a worker).
func checksumRecords(records []string) uint32 {
	buf := crcChunks.Get().(*crcChunk)
	defer crcChunks.Put(buf)
	var crc uint32
	n := 0
	for _, r := range records {
		for {
			c := copy(buf[n:], r)
			n, r = n+c, r[c:]
			if n < len(buf) {
				break // r is spent and its newline still fits
			}
			crc = crc32.Update(crc, crc32.IEEETable, buf[:])
			n = 0
		}
		buf[n] = '\n'
		n++
	}
	return crc32.Update(crc, crc32.IEEETable, buf[:n])
}

// checksumColumn is checksumRecords for a column block: the CRC32 over
// the points as a column frame lays them out (wirefmt's Points), staged
// through the same pooled chunk, which holds a whole number of points.
func checksumColumn(pts []geom.Point) uint32 {
	buf := crcChunks.Get().(*crcChunk)
	defer crcChunks.Put(buf)
	var crc uint32
	var c wirefmt.Codec
	for len(pts) > 0 {
		n := min(len(pts), len(buf)/pointSize)
		c.Encode(buf[:0])
		c.Points(pts[:n])
		crc = crc32.Update(crc, crc32.IEEETable, c.Encoded())
		pts = pts[n:]
	}
	return crc
}

// checksum computes the block's checksum over whichever form it holds.
func (b *Block) checksum() uint32 {
	if b.column {
		return checksumColumn(b.col)
	}
	return checksumRecords(b.records)
}

// seal stamps the block's checksum; whoever builds the block calls it
// exactly once, after the last record lands in it.
func (b *Block) seal() { b.crc = b.checksum() }

// Checksum returns the checksum stored when the block was sealed.
func (b *Block) Checksum() uint32 { return b.crc }

// Verify recomputes the block's checksum and compares it against the
// stored value, returning a *ChecksumError on mismatch.
func (b *Block) Verify() error {
	if got := b.checksum(); got != b.crc {
		return &ChecksumError{Block: b.ID, Want: b.crc, Got: got}
	}
	return nil
}

// VerifyCached is Verify amortized to one recompute per block: the
// verdict is the one thing a block keeps about itself, so repeated reads
// (map attempts, retries, multi-job pipelines) skip the CRC pass entirely.
func (b *Block) VerifyCached() error {
	b.verifyOnce.Do(func() { b.verifyErr = b.Verify() })
	return b.verifyErr
}

// ScrubIssue reports one corrupt block found by Scrub.
type ScrubIssue struct {
	File  string
	Block BlockID
	Want  uint32
	Got   uint32
}

// Scrub recomputes the checksum of every block in the file system
// and reports the corrupt ones — the background integrity pass HDFS data
// nodes run. Scrub always recomputes rather than trust the cached
// verification.
func (fs *FileSystem) Scrub() []ScrubIssue {
	fs.mu.RLock()
	type blockRef struct {
		file  string
		block *Block
	}
	var refs []blockRef
	for name, f := range fs.files {
		for _, b := range f.Blocks {
			refs = append(refs, blockRef{file: name, block: b})
		}
	}
	fs.mu.RUnlock()

	var issues []ScrubIssue
	for _, ref := range refs {
		var cerr *ChecksumError
		if err := ref.block.Verify(); errors.As(err, &cerr) {
			issues = append(issues, ScrubIssue{File: ref.file, Block: cerr.Block, Want: cerr.Want, Got: cerr.Got})
		}
	}
	if s := fs.sink(); s != nil && len(issues) > 0 {
		s.Inc(MetricBlocksCorrupt, int64(len(issues)))
	}
	return issues
}

// CorruptBlock models a data node damaging block i of the named file:
// it publishes, under a fresh epoch, a generation identical to the
// current one, global index shared, except that block i is a copy — same BlockID, placement and
// stored checksum — with one byte of one record flipped, or for a column
// block one bit of its first point's X. It is the
// corruption hook used by fault injection and integrity tests. The
// generation it replaced, and any reader still holding it, is untouched;
// everyone who opens the file afterwards sees the damage.
func (fs *FileSystem) CorruptBlock(name string, i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if i < 0 || i >= len(f.Blocks) {
		return fmt.Errorf("dfs: %s has no block %d", name, i)
	}
	b := f.Blocks[i]
	bad := &Block{ID: b.ID, Node: b.Node, Partition: b.Partition, Bytes: b.Bytes, crc: b.crc}
	ri := slices.IndexFunc(b.records, func(rec string) bool { return rec != "" })
	switch {
	case b.column && len(b.col) > 0:
		bad.column, bad.col, bad.lens = true, slices.Clone(b.col), b.lens
		bad.col[0].X = math.Float64frombits(math.Float64bits(bad.col[0].X) ^ 1)
	case ri >= 0:
		bad.records = slices.Clone(b.records)
		buf := []byte(bad.records[ri])
		buf[0] ^= 0x20 // flip one bit of the first byte
		bad.records[ri] = string(buf)
	default:
		return fmt.Errorf("dfs: %s block %d has no corruptible record", name, i)
	}
	next := &File{Name: name, Blocks: slices.Clone(f.Blocks), Bytes: f.Bytes, Records: f.Records, Index: f.Index}
	next.Blocks[i] = bad
	fs.publish(name, next)
	return nil
}
