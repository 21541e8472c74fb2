// Package dfs implements the HDFS stand-in used by the MapReduce runtime:
// a block-structured file system with a name node (file table and block
// placement), simulated data nodes, and text-record IO. The only HDFS
// behaviours the algorithms rely on are modelled faithfully: a file is a
// sequence of fixed-capacity blocks, each block lives on a data node, and
// one map task is scheduled per block (or per indexed partition).
//
// A block is text records or a point column. Every block a Writer builds
// holds text; one whose records all came through WritePoint carries a mark
// saying the text is nothing but points, and such a block crosses the data
// plane as a column of coordinates (frame.go). The block a worker opens
// from a column frame holds only the points, behind the same accessors:
// Points is the column, Record and Records format text on demand.
//
// Files may carry a "master" attachment, mirroring SpatialHadoop's _master
// index file that describes the spatial partitioning of the data blocks.
//
// Like an HDFS file, a file is written once: a Writer builds a generation
// nobody else can reach, and Close publishes it — over a missing name, or
// in place of the previous generation — in one step under the name-node
// lock. Whatever Open returns is complete and never changes afterwards, so
// readers need no synchronisation with writers of the same name.
package dfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/obs"
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

// Block is one storage unit: a run of records, at most BlockSize bytes of
// text, hosted by a data node.
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

	// points marks a text block every record of which was written through
	// Writer.WritePoint: each record is geomio.EncodePoint of the point it
	// parses to, so the points alone reproduce the text. Only the writer
	// sets it; a copy made any other way (CorruptBlock) is unmarked.
	points bool

	// column marks a block opened from a column frame, whose data is col
	// and which holds no text until Records formats it.
	column bool
	col    []geom.Point

	// crc is the CRC32 checksum stamped when the block was sealed — over
	// the text as laid out on disk, or over a column's bytes (checksum.go).
	crc uint32

	// cache holds lazily decoded views of the records (parsed points, an
	// operation-chosen payload). A block reachable by readers never
	// changes, so the views live exactly as long as the block.
	cache blockCache
}

// blockCache holds the decoded views over a block's records, each built
// at most once under its own sync.Once.
type blockCache struct {
	recsOnce sync.Once
	recs     []string

	ptsOnce sync.Once
	pts     []geom.Point
	ptsErr  error

	payloadOnce sync.Once
	payload     any
	payloadErr  error

	verifyOnce sync.Once
	verifyErr  error
}

// Records returns the records stored in the block, for callers that want
// all of them. A column block formats its text on the first call, at most
// once, into one arena the records share; a caller after a few records of
// such a block asks Record for them. The returned slice must not be
// modified.
func (b *Block) Records() []string {
	if !b.column {
		return b.records
	}
	c := &b.cache
	c.recsOnce.Do(func() {
		var arena strings.Builder
		// Bytes counts a newline per record; the frame decoder bounded it.
		arena.Grow(max(0, int(b.Bytes)-len(b.col)))
		ends := make([]int, len(b.col))
		var buf [geomio.MaxPointLen]byte
		for i, p := range b.col {
			arena.Write(geomio.AppendPoint(buf[:0], p))
			ends[i] = arena.Len()
		}
		text, start := arena.String(), 0
		c.recs = make([]string, len(ends))
		for i, end := range ends {
			c.recs[i], start = text[start:end], end
		}
	})
	return c.recs
}

// Record returns record i. For a column block it is formatted on the spot
// — geomio.EncodePoint of point i, which is the stored text by what the
// writer's mark means — so a probe that matched three points of a block
// pays for three records, not for the block.
func (b *Block) Record(i int) string {
	if b.column {
		return geomio.EncodePoint(b.col[i])
	}
	return b.records[i]
}

// NumRecords returns the number of records in the block.
func (b *Block) NumRecords() int {
	if b.column {
		return len(b.col)
	}
	return len(b.records)
}

// Points returns the block's records as points. A column block's points
// are its data: nothing is parsed. A text block parses at most once per
// block lifetime (SpatialHadoop re-reads the same blocks across map
// attempts and across the jobs of a pipeline; the text parse is the
// dominant per-visit cost). The returned slice is shared between all
// callers and must not be modified — every geometry kernel copies before
// sorting.
func (b *Block) Points() ([]geom.Point, error) {
	if b.column {
		return b.col, nil
	}
	c := &b.cache
	c.ptsOnce.Do(func() { c.pts, c.ptsErr = geomio.DecodePoints(b.records) })
	return c.pts, c.ptsErr
}

// Payload returns the block's decoded payload, building it with build on
// first use and caching it for the block's lifetime — the generic slot for
// non-point record types (regions, segments). All callers of a block must
// agree on the payload type; the returned value is shared and must be
// treated as read-only.
func (b *Block) Payload(build func(records []string) (any, error)) (any, error) {
	c := &b.cache
	c.payloadOnce.Do(func() { c.payload, c.payloadErr = build(b.Records()) })
	return c.payload, c.payloadErr
}

// File is the name-node metadata for one generation of a file: what one
// Writer built and its Close published. It never changes afterwards —
// replacing, deleting or corrupting the name leaves this File untouched.
type File struct {
	Name    string
	Blocks  []*Block
	Bytes   int64
	Records int64
	// Master is an opaque attachment for index metadata (SpatialHadoop's
	// _master file). The spatial layer serializes its global index here.
	Master []byte

	// epoch is the value of the file system's monotone clock when this
	// generation was published. Because the clock is global, a file that
	// is deleted and re-created never reuses an epoch, so (name, epoch)
	// names exactly one generation — what result caches key on.
	epoch int64
}

// Epoch returns the epoch this generation was published under.
func (f *File) Epoch() int64 { return f.epoch }

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

	// clock is the monotone publication clock driving file epochs: each
	// published generation is stamped clock+1.
	clock int64

	// epochHook, when installed, observes every publish (see SetEpochHook).
	epochHook func(name string, epoch int64)
}

// publish is the one place the namespace changes: it swaps the name's
// generation for next (nil deletes the name), settles data-node usage,
// stamps next with a fresh epoch and fires the epoch hook. The caller holds
// fs.mu for writing, so an Open sees the old generation or the new one and
// never anything in between.
func (fs *FileSystem) publish(name string, next *File) {
	if old, ok := fs.files[name]; ok {
		for _, b := range old.Blocks {
			fs.nodeBytes[b.Node] -= b.Bytes
		}
	}
	var epoch int64
	if next == nil {
		delete(fs.files, name)
	} else {
		fs.clock++
		epoch = fs.clock
		next.epoch = epoch
		for _, b := range next.Blocks {
			fs.nodeBytes[b.Node] += b.Bytes
		}
		fs.files[name] = next
	}
	if fs.epochHook != nil {
		fs.epochHook(name, epoch)
	}
}

// SetEpochHook installs fn, called synchronously once per change of a
// name — a Writer's Close, Delete of an existing file, CorruptBlock — with
// the name and the epoch FileEpoch reports from then on (0 after Delete).
// It is the eager invalidation signal for caches keyed on (name, epoch),
// such as the serving layer's memory tier. One hook slot exists; nil
// uninstalls. The hook runs under the name-node lock and therefore must
// not call back into the FileSystem; it should only flip its own state
// (epoch-keyed caches stay correct even with no hook at all, because a
// stale epoch never matches a fresh key).
func (fs *FileSystem) SetEpochHook(fn func(name string, epoch int64)) {
	fs.mu.Lock()
	fs.epochHook = fn
	fs.mu.Unlock()
}

// FileEpoch returns the epoch of the named file's published generation,
// or 0 when the file does not exist (epochs of live files start at 1).
func (fs *FileSystem) FileEpoch(name string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if f, ok := fs.files[name]; ok {
		return f.epoch
	}
	return 0
}

// Epochs snapshots the epoch of every live file. Masters embed
// the snapshot in heartbeat replies so workers holding pinned partitions
// learn about rewrites and drop stale tiers without a second RPC channel.
func (fs *FileSystem) Epochs() map[string]int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make(map[string]int64, len(fs.files))
	for name, f := range fs.files {
		out[name] = f.epoch
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

// Writer builds one generation of a file in private, cutting a new block
// whenever the current one reaches capacity; Close publishes it, and a
// writer that is never closed leaves nothing behind. Writers are not safe
// for concurrent use.
type Writer struct {
	fs        *FileSystem
	file      *File
	replace   bool // Close may take the name from a published file
	partition string
	cur       *Block
	closed    bool
}

// Create returns a writer for a new file. It fails fast with ErrExists
// when the name is already published; Close checks again, so of two
// unclosed writers racing for one new name the second to close loses.
func (fs *FileSystem) Create(name string) (*Writer, error) {
	if fs.Exists(name) {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	return &Writer{fs: fs, file: &File{Name: name}}, nil
}

// CreateOrReplace returns a writer whose Close publishes over whatever
// the name holds then; until it does the previous generation stays readable.
// Neither call can fail; concurrent replacements are last-Close-wins.
func (fs *FileSystem) CreateOrReplace(name string) (*Writer, error) {
	return &Writer{fs: fs, file: &File{Name: name}, replace: true}, nil
}

// SetPartition directs subsequent records to blocks tagged with the given
// partition key, cutting (and sealing) the current block. The spatial
// file loader calls it once per partition.
func (w *Writer) SetPartition(key string) {
	w.sealCur()
	w.cur = nil
	w.partition = key
}

// sealCur seals the block being written, if any. A block lives as long as
// its file, so what append over-allocated for its records is first given
// back when it is more than an eighth of them.
func (w *Writer) sealCur() {
	b := w.cur
	if b == nil {
		return
	}
	if cap(b.records)-len(b.records) > len(b.records)/8 {
		b.records = slices.Clone(b.records)
	}
	b.seal()
}

// WriteRecord appends one text record.
func (w *Writer) WriteRecord(rec string) { w.write(rec, false) }

// WritePoint appends one point record: rec must be geomio.EncodePoint of
// a point, which is what the spatial loaders hold. It stores the same text
// WriteRecord would; the difference is the mark. A block that received
// nothing but WritePoint calls is known to be points in their one
// spelling, and ships to workers as a coordinate column instead of text
// (frame.go). One WriteRecord into the block and it is a text block.
func (w *Writer) WritePoint(rec string) { w.write(rec, true) }

func (w *Writer) write(rec string, point bool) {
	if w.closed {
		panic("dfs: write on closed writer")
	}
	sz := int64(len(rec)) + 1 // newline accounting
	if w.cur == nil || w.cur.Bytes+sz > w.fs.cfg.BlockSize && w.cur.Bytes > 0 {
		w.cut()
	}
	if !point {
		w.cur.points = false
	}
	w.cur.records = append(w.cur.records, rec)
	w.cur.Bytes += sz
	w.file.Bytes += sz
	w.file.Records++
}

// cut seals the current block and starts a new one on the next data node
// (round-robin placement).
func (w *Writer) cut() {
	w.sealCur()
	fs := w.fs
	fs.mu.Lock()
	id := fs.nextBlock
	fs.nextBlock++
	node := fs.nextNode
	fs.nextNode = (fs.nextNode + 1) % fs.cfg.DataNodes
	fs.mu.Unlock()
	// Marked until a WriteRecord says otherwise; a write always follows.
	b := &Block{ID: id, Node: node, Partition: w.partition, points: true}
	w.cur = b
	w.file.Blocks = append(w.file.Blocks, b)
}

// Close seals the last block and publishes the file. A Create writer
// returns ErrExists, publishing nothing, when the name was taken in the
// meantime; a CreateOrReplace writer cannot fail.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.sealCur()
	fs := w.fs
	fs.mu.Lock()
	if _, ok := fs.files[w.file.Name]; ok && !w.replace {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, w.file.Name)
	}
	fs.publish(w.file.Name, w.file)
	s := fs.metrics
	fs.mu.Unlock()
	if s != nil {
		s.Inc(MetricBlocksWritten, int64(len(w.file.Blocks)))
		s.Inc(MetricRecordsWritten, w.file.Records)
	}
	return nil
}

// SetMaster attaches index metadata to the file being written.
func (w *Writer) SetMaster(master []byte) { w.file.Master = master }

// Open returns the file's published generation.
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
func (fs *FileSystem) Exists(name string) bool { return fs.FileEpoch(name) != 0 }

// Delete removes a file, releasing its blocks. Deleting a missing file is
// not an error.
func (fs *FileSystem) Delete(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		fs.publish(name, nil)
	}
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
// each block's checksum on the way (amortized to one CRC pass per
// block). A corrupted block surfaces as a *ChecksumError wrapping
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
		out = append(out, b.Records()...)
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
