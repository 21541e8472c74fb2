package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Block integrity: every block carries a CRC32 (IEEE) checksum over its
// records, computed once when the block is sealed (when the writer cuts
// to the next block, changes partition, or closes the file) — mirroring
// HDFS, which checksums blocks on write and verifies them on read. Read
// paths verify through VerifyCached, which recomputes at most once per
// block generation (the same amortization as the decode cache), so a
// block scanned by many jobs pays the CRC pass once. A mismatch surfaces
// as a *ChecksumError wrapping ErrChecksum; the error is transient in the
// fault-classification sense because in a replicated DFS a re-read can be
// served by a healthy replica.

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

// seal stamps the block's checksum; the writer calls it exactly once,
// after the last record lands in the block.
func (b *Block) seal() {
	b.crc = checksumRecords(b.records)
	b.sealed = true
}

// Checksum returns the checksum stored when the block was sealed (0 for
// a block still under construction).
func (b *Block) Checksum() uint32 { return b.crc }

// Sealed reports whether the block has been finalized and checksummed.
func (b *Block) Sealed() bool { return b.sealed }

// Verify recomputes the block's checksum and compares it against the
// stored value, returning a *ChecksumError on mismatch. Blocks still
// under construction verify trivially.
func (b *Block) Verify() error {
	if !b.sealed {
		return nil
	}
	if got := checksumRecords(b.records); got != b.crc {
		return &ChecksumError{Block: b.ID, Want: b.crc, Got: got}
	}
	return nil
}

// VerifyCached is Verify amortized to one recompute per block generation:
// the result is cached alongside the decoded views and dropped whenever
// the block's records change, so repeated reads (map attempts, retries,
// multi-job pipelines) skip the CRC pass entirely.
func (b *Block) VerifyCached() error {
	c := b.cacheSlot()
	c.verifyOnce.Do(func() { c.verifyErr = b.Verify() })
	return c.verifyErr
}

// ScrubIssue reports one corrupt block found by Scrub.
type ScrubIssue struct {
	File  string
	Block BlockID
	Want  uint32
	Got   uint32
}

// Scrub recomputes the checksum of every sealed block in the file system
// and reports the corrupt ones — the background integrity pass HDFS data
// nodes run. Scrub always recomputes (it does not trust the cached
// verification) so it also catches corruption introduced after a block
// was last read.
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

// CorruptBlock flips one byte in block i of the named file without
// updating the stored checksum — the corruption hook used by fault
// injection and integrity tests. The decode cache is invalidated so the
// next verification sees the damage.
func (fs *FileSystem) CorruptBlock(name string, i int) error {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if i < 0 || i >= len(f.Blocks) {
		return fmt.Errorf("dfs: %s has no block %d", name, i)
	}
	b := f.Blocks[i]
	for ri, rec := range b.records {
		if len(rec) == 0 {
			continue
		}
		buf := []byte(rec)
		buf[0] ^= 0x20 // flip one bit of the first byte
		b.records[ri] = string(buf)
		b.invalidate()
		fs.stamp(f)
		return nil
	}
	return fmt.Errorf("dfs: %s block %d has no corruptible record", name, i)
}
