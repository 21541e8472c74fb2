// Package dfs implements the HDFS stand-in used by the MapReduce runtime:
// a block-structured file system with a name node (file table and block
// placement), simulated data nodes, and text-record IO. The only HDFS
// behaviours the algorithms rely on are modelled faithfully: a file is a
// sequence of fixed-capacity blocks, each block lives on a data node, and
// one map task is scheduled per block (or per indexed partition).
//
// Files may carry a "master" attachment, mirroring SpatialHadoop's _master
// index file that describes the spatial partitioning of the data blocks.
package dfs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/rtree"
)

// DefaultBlockSize is the default block capacity in bytes. The paper uses
// 64 MB; the default here is scaled down so laptop-sized datasets still
// split into a realistic number of blocks.
const DefaultBlockSize = 1 << 20

// Config configures a FileSystem.
type Config struct {
	// BlockSize is the block capacity in bytes (DefaultBlockSize if zero).
	BlockSize int64
	// DataNodes is the number of simulated storage nodes (default 25,
	// matching the paper's cluster).
	DataNodes int
}

// BlockID identifies a block within the file system.
type BlockID int64

// Block is one storage unit: a run of text records, at most BlockSize
// bytes, hosted by a data node.
type Block struct {
	ID BlockID
	// Node is the data node hosting the block.
	Node int
	// Partition is the spatial partition key of the block, or "" for
	// non-indexed (heap) files.
	Partition string
	// Bytes is the summed encoded size of the records.
	Bytes int64

	records []string

	// crc is the CRC32 checksum stamped when the block was sealed;
	// sealed distinguishes a finished block from one still being
	// written (see checksum.go).
	crc    uint32
	sealed bool

	// cache holds lazily decoded views of the records (parsed points, an
	// operation-chosen payload). It is swapped out wholesale on write, so
	// a reader that already holds a slot keeps a consistent snapshot.
	cache atomic.Pointer[blockCache]
}

// blockCache is one generation of decoded views over a block's records.
// Each view is built at most once per generation under its own sync.Once;
// writes install a fresh generation rather than resetting, keeping the
// fast path a single atomic load.
type blockCache struct {
	ptsOnce sync.Once
	pts     []geom.Point
	ptsErr  error

	payloadOnce sync.Once
	payload     any
	payloadErr  error

	idxOnce sync.Once
	idx     *rtree.Tree
	idxErr  error

	verifyOnce sync.Once
	verifyErr  error
}

// Records returns the records stored in the block. The returned slice must
// not be modified.
func (b *Block) Records() []string { return b.records }

// NumRecords returns the number of records in the block.
func (b *Block) NumRecords() int { return len(b.records) }

// cacheSlot returns the current cache generation, installing one if the
// block has never been decoded.
func (b *Block) cacheSlot() *blockCache {
	for {
		if c := b.cache.Load(); c != nil {
			return c
		}
		if b.cache.CompareAndSwap(nil, &blockCache{}) {
			continue // reload the slot we just installed
		}
	}
}

// invalidate drops all decoded views; the writer calls it whenever the
// block's records change so no reader ever sees stale decodes.
func (b *Block) invalidate() { b.cache.Store(nil) }

// Points returns the block's records decoded as points, parsing them at
// most once per block lifetime (SpatialHadoop re-reads the same blocks
// across map attempts and across the jobs of a pipeline; the text parse is
// the dominant per-visit cost). The returned slice is shared between all
// callers and must not be modified — every geometry kernel copies before
// sorting.
func (b *Block) Points() ([]geom.Point, error) { return b.cacheSlot().points(b) }

func (c *blockCache) points(b *Block) ([]geom.Point, error) {
	c.ptsOnce.Do(func() { c.pts, c.ptsErr = geomio.DecodePoints(b.records) })
	return c.pts, c.ptsErr
}

// Payload returns the block's decoded payload, building it with build on
// first use and caching it for the block's lifetime — the generic slot for
// non-point record types (regions, segments). All callers of a block must
// agree on the payload type; the returned value is shared and must be
// treated as read-only. Like Points, the cache is dropped when the block
// is written.
func (b *Block) Payload(build func(records []string) (any, error)) (any, error) {
	c := b.cacheSlot()
	c.payloadOnce.Do(func() { c.payload, c.payloadErr = build(b.records) })
	return c.payload, c.payloadErr
}

// LocalIndex returns the R-tree local index over the block's points,
// bulk-loaded on first use — the local index SpatialHadoop persists beside
// each block. It lives in the block's cache generation beside the decoded
// points it is built from, so it is dropped when the block is written and
// dies with the block when its file is replaced or deleted.
func (b *Block) LocalIndex() (*rtree.Tree, error) {
	c := b.cacheSlot()
	c.idxOnce.Do(func() {
		var pts []geom.Point
		if pts, c.idxErr = c.points(b); c.idxErr == nil {
			c.idx = rtree.BulkPoints(pts, rtree.DefaultFanout)
		}
	})
	return c.idx, c.idxErr
}

// File is the name-node metadata for one file.
type File struct {
	Name    string
	Blocks  []*Block
	Bytes   int64
	Records int64
	// Master is an opaque attachment for index metadata (SpatialHadoop's
	// _master file). The spatial layer serializes its global index here.
	Master []byte

	// epoch is the file's mutation epoch: the value of the file system's
	// monotone clock at the file's most recent mutation (creation, record
	// write, master attachment). Because the clock is global, a file that
	// is deleted and re-created never reuses an epoch, so (name, epoch)
	// uniquely identifies one immutable state of a file's contents —
	// exactly what result caches key on to invalidate correctly.
	epoch atomic.Int64
}

// Epoch returns the file's current mutation epoch.
func (f *File) Epoch() int64 { return f.epoch.Load() }

// Sink receives file-system metrics. obs.Registry satisfies it; the
// narrow interface keeps dfs free of an observability dependency.
type Sink interface {
	Inc(name string, delta int64)
}

// Metric names emitted by the file system when a Sink is attached.
const (
	MetricBlocksWritten  = "dfs.blocks.written"
	MetricRecordsWritten = "dfs.records.written"
	MetricBlocksRead     = "dfs.blocks.read"
	MetricRecordsRead    = "dfs.records.read"
	MetricBlocksCorrupt  = "dfs.blocks.corrupt"
)

// FileSystem is the distributed file system facade: a name node plus data
// nodes. It is safe for concurrent use.
type FileSystem struct {
	mu        sync.RWMutex
	cfg       Config
	files     map[string]*File
	nextBlock BlockID
	nextNode  int
	nodeBytes []int64
	metrics   Sink

	// clock is the monotone mutation clock driving file epochs: every
	// mutation stamps the touched file with clock+1.
	clock atomic.Int64

	// epochHook, when installed, observes every stamp (see SetEpochHook).
	epochHook atomic.Pointer[func(name string, epoch int64)]
}

// stamp advances the mutation clock and records the new epoch on f.
func (fs *FileSystem) stamp(f *File) {
	e := fs.clock.Add(1)
	f.epoch.Store(e)
	if hook := fs.epochHook.Load(); hook != nil {
		(*hook)(f.Name, e)
	}
}

// SetEpochHook installs fn, called synchronously after every file mutation
// with the file's name and new epoch — the eager invalidation signal for
// caches keyed on (name, epoch), such as the serving layer's memory tier.
// One hook slot exists; nil uninstalls. The hook may run under file-system
// locks and therefore must not call back into the FileSystem; it should
// only flip its own state (epoch-keyed caches stay correct even with no
// hook at all, because a stale epoch never matches a fresh key).
func (fs *FileSystem) SetEpochHook(fn func(name string, epoch int64)) {
	if fn == nil {
		fs.epochHook.Store(nil)
		return
	}
	fs.epochHook.Store(&fn)
}

// FileEpoch returns the named file's mutation epoch, or 0 when the file
// does not exist (epochs of live files start at 1).
func (fs *FileSystem) FileEpoch(name string) int64 {
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return 0
	}
	return f.Epoch()
}

// Epochs snapshots the mutation epoch of every live file. Masters embed
// the snapshot in heartbeat replies so workers holding pinned partitions
// learn about rewrites and drop stale tiers without a second RPC channel.
func (fs *FileSystem) Epochs() map[string]int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make(map[string]int64, len(fs.files))
	for name, f := range fs.files {
		out[name] = f.Epoch()
	}
	return out
}

// SetMetrics attaches a metrics sink; the file system then reports blocks
// and records read and written. A nil sink disables reporting.
func (fs *FileSystem) SetMetrics(s Sink) {
	fs.mu.Lock()
	fs.metrics = s
	fs.mu.Unlock()
}

// sink returns the attached sink, or nil.
func (fs *FileSystem) sink() Sink {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.metrics
}

// New creates an empty file system.
func New(cfg Config) *FileSystem {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.DataNodes <= 0 {
		cfg.DataNodes = 25
	}
	return &FileSystem{
		cfg:       cfg,
		files:     make(map[string]*File),
		nodeBytes: make([]int64, cfg.DataNodes),
	}
}

// BlockSize returns the configured block capacity.
func (fs *FileSystem) BlockSize() int64 { return fs.cfg.BlockSize }

// DataNodes returns the number of simulated data nodes.
func (fs *FileSystem) DataNodes() int { return fs.cfg.DataNodes }

// ErrNotFound is returned when opening a file that does not exist.
var ErrNotFound = errors.New("dfs: file not found")

// ErrExists is returned when creating a file that already exists.
var ErrExists = errors.New("dfs: file already exists")

// Writer appends records to a file under construction, cutting a new block
// whenever the current one reaches capacity. Writers are not safe for
// concurrent use.
type Writer struct {
	fs        *FileSystem
	file      *File
	partition string
	cur       *Block
	closed    bool
}

// Create creates a new file and returns a writer for it.
func (fs *FileSystem) Create(name string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &File{Name: name}
	fs.stamp(f)
	fs.files[name] = f
	return &Writer{fs: fs, file: f}, nil
}

// CreateOrReplace is Create, deleting any existing file first.
func (fs *FileSystem) CreateOrReplace(name string) (*Writer, error) {
	fs.Delete(name)
	return fs.Create(name)
}

// SetPartition directs subsequent records to blocks tagged with the given
// partition key, cutting (and sealing) the current block. The spatial
// file loader calls it once per partition.
func (w *Writer) SetPartition(key string) {
	if w.cur != nil {
		w.cur.seal()
	}
	w.cur = nil
	w.partition = key
}

// WriteRecord appends one text record.
func (w *Writer) WriteRecord(rec string) {
	if w.closed {
		panic("dfs: write on closed writer")
	}
	sz := int64(len(rec)) + 1 // newline accounting
	if w.cur == nil || w.cur.Bytes+sz > w.fs.cfg.BlockSize && w.cur.Bytes > 0 {
		w.cut()
	}
	w.cur.records = append(w.cur.records, rec)
	w.cur.Bytes += sz
	w.file.Bytes += sz
	w.file.Records++
	w.fs.stamp(w.file)
	if w.cur.cache.Load() != nil { // skip the store barrier on the common path
		w.cur.invalidate()
	}
}

// cut seals the current block and starts a new one on the next data node
// (round-robin placement).
func (w *Writer) cut() {
	if w.cur != nil {
		w.cur.seal()
	}
	fs := w.fs
	fs.mu.Lock()
	id := fs.nextBlock
	fs.nextBlock++
	node := fs.nextNode
	fs.nextNode = (fs.nextNode + 1) % fs.cfg.DataNodes
	fs.mu.Unlock()
	b := &Block{ID: id, Node: node, Partition: w.partition}
	w.cur = b
	w.file.Blocks = append(w.file.Blocks, b)
}

// Close finalizes the file and records data-node usage.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cur != nil {
		w.cur.seal()
	}
	fs := w.fs
	if s := fs.sink(); s != nil {
		s.Inc(MetricBlocksWritten, int64(len(w.file.Blocks)))
		s.Inc(MetricRecordsWritten, w.file.Records)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, b := range w.file.Blocks {
		fs.nodeBytes[b.Node] += b.Bytes
	}
	return nil
}

// SetMaster attaches index metadata to the file being written.
func (w *Writer) SetMaster(master []byte) {
	w.file.Master = master
	w.fs.stamp(w.file)
}

// Open returns the metadata for a file.
func (fs *FileSystem) Open(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f, nil
}

// Exists reports whether the file exists.
func (fs *FileSystem) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// Delete removes a file, releasing its blocks. Deleting a missing file is
// not an error.
func (fs *FileSystem) Delete(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return
	}
	for _, b := range f.Blocks {
		fs.nodeBytes[b.Node] -= b.Bytes
	}
	delete(fs.files, name)
}

// List returns the names of all files in sorted order.
func (fs *FileSystem) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ReadAll returns every record of the file in block order, verifying
// each block's checksum on the way (amortized to one CRC pass per block
// generation). A corrupted block surfaces as a *ChecksumError wrapping
// ErrChecksum.
func (fs *FileSystem) ReadAll(name string) ([]string, error) {
	return fs.ReadAllCtx(context.Background(), name)
}

// ReadAllCtx is ReadAll under a context: when the context carries a
// request trace (serving path), the read is recorded as a "dfs.read"
// span with the file name, block and record counts. Metrics still flow
// through the Sink indirection; only tracing couples dfs to obs, which
// is a leaf package.
func (fs *FileSystem) ReadAllCtx(ctx context.Context, name string) ([]string, error) {
	_, span := obs.StartSpan(ctx, "dfs.read")
	defer span.End()
	span.SetAttr("file", name)
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	span.SetAttr("blocks", fmt.Sprint(len(f.Blocks)))
	span.SetAttr("records", fmt.Sprint(f.Records))
	if s := fs.sink(); s != nil {
		s.Inc(MetricBlocksRead, int64(len(f.Blocks)))
		s.Inc(MetricRecordsRead, f.Records)
	}
	out := make([]string, 0, f.Records)
	for _, b := range f.Blocks {
		if err := b.VerifyCached(); err != nil {
			if s := fs.sink(); s != nil {
				s.Inc(MetricBlocksCorrupt, 1)
			}
			return nil, fmt.Errorf("dfs: %s: %w", name, err)
		}
		out = append(out, b.records...)
	}
	return out, nil
}

// WriteFile creates a file from records in one call.
func (fs *FileSystem) WriteFile(name string, records []string) error {
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	for _, r := range records {
		w.WriteRecord(r)
	}
	return w.Close()
}

// NodeBytes returns bytes stored per data node, for balance reporting.
func (fs *FileSystem) NodeBytes() []int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]int64, len(fs.nodeBytes))
	copy(out, fs.nodeBytes)
	return out
}
