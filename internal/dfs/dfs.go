// Package dfs implements the HDFS stand-in used by the MapReduce runtime:
// a block-structured file system with a name node (file table and block
// placement), simulated data nodes, and text-record IO. The only HDFS
// behaviours the algorithms rely on are modelled faithfully: a file is a
// sequence of fixed-capacity blocks, each block lives on a data node, and
// one map task is scheduled per block (or per indexed partition).
//
// A block is text records or a point column. A Writer stores the runs
// WritePoints hands it as points, 16 bytes each, and what WriteRecord hands
// it as text; the two never share a block. A point block — a loaded points
// file, a job's range matches (WriteSelected), the block a worker opens
// from a column frame (frame.go) — answers Points with its column and
// formats Record and Records on demand. Text is what a caller asks for and
// what a job writes as text (skyline, hull, pair and join outputs). A
// block whose records all came in WriteRegions runs is region-marked and
// holds each record's MBR beside its text, so Bounds parses nothing, here
// or on the worker the rects travel to. A block keeps no decoded view: a
// text block parses on every Points or Bounds call.
//
// A run's blocks hold views of the caller's arrays, so one file's blocks
// may share one: nothing changes a sealed block's column in place, and
// CorruptBlock damages a copy.
//
// An indexed file carries the global index its loader built (File.Index),
// SpatialHadoop's _master file kept as the value it is: the splitter and
// the planners read it where it lies, and nothing encodes or parses it.
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
	"spatialhadoop/internal/sindex"
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

	// regions marks a block of nothing but region runs (WriteRegions),
	// rects[i] being the MBR record i parses to. The mark is the writer's
	// alone; a copy made any other way (CorruptBlock) is unmarked.
	regions bool
	rects   []geom.Rect

	// column marks a block of points: col is its data, and it holds no
	// text. lens[i] is the size of record i's text, as its writer measured
	// it; a column opened from a frame carries none.
	column bool
	col    []geom.Point
	lens   []uint8

	// crc is the CRC32 checksum stamped when the block was sealed — over
	// the text as laid out on disk, or over a column's bytes (checksum.go).
	crc uint32

	// verifyOnce runs the one checksum pass VerifyCached amortizes; a
	// block reachable by readers never changes, so its verdict is final.
	verifyOnce sync.Once
	verifyErr  error
}

// Records returns the records stored in the block, for callers that want
// all of them. A column block formats its text anew on every call, into
// one arena the records share, and keeps none of it: whoever asks for a
// block's text (ReadAll, a text frame) holds it only as long as they need it. A
// caller after a few records of such a block asks Record for them. The
// returned slice must not be modified.
func (b *Block) Records() []string {
	if !b.column {
		return b.records
	}
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
	recs := make([]string, len(ends))
	for i, end := range ends {
		recs[i], start = text[start:end], end
	}
	return recs
}

// Record returns record i. For a column block it is formatted on the spot
// — geomio.EncodePoint of point i, a point's one spelling — so a probe
// that matched three points of a block pays for three records, not for
// the block.
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
// are its data: nothing is parsed, and the slice is shared between all
// callers and must not be modified — every geometry kernel copies before
// sorting. A text block parses its records on every call and keeps
// nothing: the points a file's writer knew are stored as a column.
func (b *Block) Points() ([]geom.Point, error) {
	if b.column {
		return b.col, nil
	}
	return geomio.DecodePoints(b.records)
}

// Bounds returns the MBR of each record, index-aligned with Records, for
// callers that need only MBRs (the join's sweep, region range filters). A
// region-marked block's rects are what its writer computed: nothing is
// parsed, and the slice is shared and must not be modified. Any other
// block parses its records as regions on every call, by the Points rule.
func (b *Block) Bounds() ([]geom.Rect, error) {
	if b.regions {
		return b.rects, nil
	}
	return decodeBounds(b.Records())
}

func decodeBounds(recs []string) ([]geom.Rect, error) {
	out := make([]geom.Rect, len(recs))
	for i, r := range recs {
		rg, err := geomio.DecodeRegion(r)
		if err != nil {
			return nil, err
		}
		out[i] = rg.Bounds()
	}
	return out, nil
}

// File is the name-node metadata for one generation of a file: what one
// Writer built and its Close published. It never changes afterwards —
// replacing, deleting or corrupting the name leaves this File untouched.
type File struct {
	Name    string
	Blocks  []*Block
	Bytes   int64
	Records int64
	// Index is the global index the loader partitioned the blocks by
	// (SpatialHadoop's _master file), nil for a heap file. It is read-only
	// once published, and every generation CorruptBlock derives shares it.
	Index *sindex.GlobalIndex

	// epoch is the value of the file system's monotone clock when this
	// generation was published. Because the clock is global, a file that
	// is deleted and re-created never reuses an epoch, so (name, epoch)
	// names exactly one generation — what result caches key on.
	epoch int64
}

// Epoch returns the epoch this generation was published under.
func (f *File) Epoch() int64 { return f.epoch }

// Metric names emitted by the file system when a registry is attached
// (SetMetrics).
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
	metrics   *obs.Registry

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

// SetMetrics attaches a metrics registry; the file system then reports
// blocks and records read and written. A nil registry disables reporting.
func (fs *FileSystem) SetMetrics(r *obs.Registry) {
	fs.mu.Lock()
	fs.metrics = r
	fs.mu.Unlock()
}

// sink returns the attached registry, or nil.
func (fs *FileSystem) sink() *obs.Registry {
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
	sel       []selection // deferred by WriteSelected
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
	w.flushSelected()
	w.sealCur()
	w.cur = nil
	w.partition = key
}

// sealCur seals the block being written, if any. A block lives as long as
// its file, so what append over-allocated for its records is first given
// back when it is more than an eighth of them; runs are cut to length.
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

// WriteRecord appends one text record; a region block it lands in turns
// to text, and a point block is cut.
func (w *Writer) WriteRecord(rec string) {
	w.flushSelected()
	b := w.next(len(rec), false)
	b.regions, b.rects = false, nil
	b.records = append(b.records, rec)
}

// WritePoints appends a run of points, stored as points: 16 bytes each
// and one for lens[i] = len(geomio.EncodePoint(pts[i])), which the
// loaders measure in parallel. Blocks are cut by those text sizes, so a
// file of points has its text's blocks, Bytes and placement. Each block's
// column and lengths are views of pts and lens: the caller hands both
// over. A point block ships as a column (frame.go); text and points never
// share a block.
func (w *Writer) WritePoints(pts []geom.Point, lens []uint8) {
	for _, n := range lens { // all checked before anything is written
		if int(n)+1 < minPointBytes || int(n)+1 > maxPointBytes || len(lens) != len(pts) {
			panic(fmt.Sprintf("dfs: %d points, %d text lengths, one of %d bytes", len(pts), len(lens), n))
		}
	}
	w.flushSelected()
	for i, j := 0, 0; i < len(pts); i = j {
		b := w.next(int(lens[i]), true)
		for j = i + 1; j < len(pts) && w.grow(b, int(lens[j])); j++ {
		}
		b.col, b.lens = extend(b.col, pts[i:j]), extend(b.lens, lens[i:j])
	}
}

// WriteRegions appends a run of regions: recs[i] is geomio.EncodeRegion
// of one and rects[i] its Bounds, kept beside the text and cut from the
// run as WritePoints cuts. A block of nothing but region runs answers
// Bounds and ships its rects without a parse (frame.go); any other write
// into it makes it text.
func (w *Writer) WriteRegions(recs []string, rects []geom.Rect) {
	if len(rects) != len(recs) {
		panic(fmt.Sprintf("dfs: %d regions with %d rects", len(recs), len(rects)))
	}
	w.flushSelected()
	for i, j := 0, 0; i < len(recs); i = j {
		b := w.next(len(recs[i]), false)
		b.regions = b.regions || len(b.records) == 0 // the first write names the mark
		for j = i + 1; j < len(recs) && w.grow(b, len(recs[j])); j++ {
		}
		b.records = extend(b.records, recs[i:j])
		if b.regions {
			b.rects = extend(b.rects, rects[i:j])
		}
	}
}

// extend returns col followed by run with no room to grow: run itself
// when col is empty, else an exact-size copy of both. So one file's
// blocks may share a run's array, and nothing appends to one in place.
func extend[T any](col, run []T) []T {
	if len(col) == 0 {
		return run[:len(run):len(run)]
	}
	return append(append(make([]T, 0, len(col)+len(run)), col...), run...)
}

// selection is records ids of block src, deferred by WriteSelected.
type selection struct {
	src *Block
	ids []int
}

// WriteSelected appends records ids of src, a block of this file system,
// in that order: what a map task selected from its input instead of
// copying it out. A text block's records are written as its strings. A
// point block's are deferred, and each maximal sequence of them written
// as one run, allocated at its final size, with the text sizes src's
// writer measured, so they are cut where their text would be; a region
// block's likewise keep their text, mark and rects.
func (w *Writer) WriteSelected(src *Block, ids []int) {
	if !src.column && !src.regions {
		for _, id := range ids {
			w.WriteRecord(src.records[id])
		}
		return
	}
	if len(w.sel) > 0 && w.sel[0].src.column != src.column {
		w.flushSelected()
	}
	w.sel = append(w.sel, selection{src, ids})
}

// flushSelected writes the deferred selections as one run; every other
// write, SetPartition and Close call it first.
func (w *Writer) flushSelected() {
	sel, n := w.sel, 0
	if len(sel) == 0 {
		return
	}
	w.sel = nil
	for _, s := range sel {
		n += len(s.ids)
	}
	if sel[0].src.column {
		pts, lens := make([]geom.Point, 0, n), make([]uint8, 0, n)
		for _, s := range sel {
			for _, id := range s.ids {
				pts, lens = append(pts, s.src.col[id]), append(lens, s.src.lens[id])
			}
		}
		w.WritePoints(pts, lens)
		return
	}
	recs, rects := make([]string, 0, n), make([]geom.Rect, 0, n)
	for _, s := range sel {
		for _, id := range s.ids {
			recs, rects = append(recs, s.src.records[id]), append(rects, s.src.rects[id])
		}
	}
	w.WriteRegions(recs, rects)
}

// next accounts one record of size text bytes and returns the block it
// goes to, cutting when the current one is full or holds the other form.
func (w *Writer) next(size int, column bool) *Block {
	if w.closed {
		panic("dfs: write on closed writer")
	}
	if b := w.cur; b == nil || b.column != column || !w.grow(b, size) {
		w.cut()
		w.cur.column = column
		w.grow(w.cur, size)
	}
	return w.cur
}

// grow accounts one more record of size text bytes to b, the current
// block, unless that takes b, holding some, past BlockSize.
func (w *Writer) grow(b *Block, size int) bool {
	sz := int64(size) + 1 // newline accounting
	if b.Bytes > 0 && b.Bytes+sz > w.fs.cfg.BlockSize {
		return false
	}
	b.Bytes += sz
	w.file.Bytes += sz
	w.file.Records++
	return true
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
	// A write always follows, and sets the block's form.
	b := &Block{ID: id, Node: node, Partition: w.partition}
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
	w.flushSelected()
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

// SetIndex attaches the global index to the file being written. The
// caller hands it over: nothing may change it afterwards.
func (w *Writer) SetIndex(gi *sindex.GlobalIndex) { w.file.Index = gi }

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
// span with the file name, block and record counts.
func (fs *FileSystem) ReadAllCtx(ctx context.Context, name string) ([]string, error) {
	return readFile(fs, ctx, name, func(out []string, b *Block) ([]string, error) {
		return append(out, b.Records()...), nil
	})
}

// ReadPointsCtx is ReadAllCtx for a file of points, as Points reads each
// block.
func (fs *FileSystem) ReadPointsCtx(ctx context.Context, name string) ([]geom.Point, error) {
	return readFile(fs, ctx, name, func(out []geom.Point, b *Block) ([]geom.Point, error) {
		pts, err := b.Points()
		return append(out, pts...), err
	})
}

// readFile is one whole-file read under its "dfs.read" span and read
// metrics: each block, verified, is appended to the result in order.
func readFile[T any](fs *FileSystem, ctx context.Context, name string, appendBlock func([]T, *Block) ([]T, error)) ([]T, error) {
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
	out := make([]T, 0, f.Records)
	for _, b := range f.Blocks {
		if err := b.VerifyCached(); err != nil {
			if s := fs.sink(); s != nil {
				s.Inc(MetricBlocksCorrupt, 1)
			}
			return nil, fmt.Errorf("dfs: %s: %w", name, err)
		}
		if out, err = appendBlock(out, b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteFile creates a file of text records in one call. A loader stores
// what it decoded instead (core's LoadPointsHeap, LoadRegionsHeap): this
// is for records that are only text, and for tests that need a text file.
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
