// Package core is the SpatialHadoop system facade: it ties the block file
// system, the MapReduce runtime and the spatial index layer together. It
// provides the spatial file loaders (heap and indexed), the spatial file
// splitter that turns an indexed file into MBR-carrying splits for the
// filter functions, the spatial record reader with cached local (R-tree)
// indexes, and pruning statistics.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/sindex"
)

// System-level metric names (index loads and file-system traffic; per-job
// metrics live in the mapreduce.Report of each run).
const (
	MetricIndexBuildUS      = "sindex.build_us"
	MetricPartitionsCreated = "sindex.partitions.created"
	MetricPartitionsEmpty   = "sindex.partitions.empty"
	MetricPartitionOverflow = "sindex.partitions.overflow"
	MetricPartitionFill     = "sindex.partition.fill"
	GaugePartitionImbalance = "sindex.partition.imbalance"
)

// Config configures a System.
type Config struct {
	// BlockSize is the DFS block capacity in bytes (dfs.DefaultBlockSize
	// if zero).
	BlockSize int64
	// Workers is the number of concurrent worker slots, i.e. the cluster
	// size (default 25, matching the paper's deployment).
	Workers int
	// Seed drives sampling; loads are deterministic given a seed.
	Seed int64
	// Fault is the seeded chaos plan installed on the cluster (a disabled
	// plan injects nothing). Jobs retry, speculate and re-read through the
	// cluster's fault.RetryPolicy regardless; the plan only adds faults.
	Fault fault.Plan
}

// System is a running SpatialHadoop deployment: one file system and one
// compute cluster.
type System struct {
	fs      *dfs.FileSystem
	cluster *mapreduce.Cluster
	cfg     Config

	// metrics is the system-level registry: index build and fill stats,
	// file-system traffic. Per-job metrics live in each job's Report.
	metrics *obs.Registry

	// hot aggregates per-partition access statistics (scans, prunes,
	// records, matches) across query jobs — the hot-partition telemetry
	// the skew report and a future repartitioner read.
	hot *sindex.Hotness
}

// New creates a System.
func New(cfg Config) *System {
	if cfg.Workers <= 0 {
		cfg.Workers = 25
	}
	fs := dfs.New(dfs.Config{BlockSize: cfg.BlockSize, DataNodes: cfg.Workers})
	return NewWithFS(cfg, fs)
}

// NewWithFS creates a System over an existing file system — typically one
// reloaded with dfs.LoadDir. Indexed files keep their master attachments,
// so reopened files prune exactly as before.
func NewWithFS(cfg Config, fs *dfs.FileSystem) *System {
	if cfg.Workers <= 0 {
		cfg.Workers = 25
	}
	reg := obs.NewRegistry()
	fs.SetMetrics(reg)
	sys := &System{
		fs:      fs,
		cluster: mapreduce.NewCluster(fs, cfg.Workers),
		cfg:     cfg,
		metrics: reg,
		hot:     sindex.NewHotness(),
	}
	if cfg.Fault.Enabled() {
		sys.cluster.SetFault(cfg.Fault)
	}
	return sys
}

// FS returns the file system.
func (s *System) FS() *dfs.FileSystem { return s.fs }

// Metrics returns the system-level metrics registry (index builds,
// file-system traffic).
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Cluster returns the compute cluster.
func (s *System) Cluster() *mapreduce.Cluster { return s.cluster }

// Hotness returns the system's hot-partition telemetry aggregator.
func (s *System) Hotness() *sindex.Hotness { return s.hot }

// IndexedFile is an open spatially-indexed file: the data blocks plus the
// decoded global index.
type IndexedFile struct {
	Name  string
	File  *dfs.File
	Index *sindex.GlobalIndex
}

// LoadPointsHeap stores points as a heap (non-indexed) file: records are
// written in input order and split into blocks with no spatial awareness —
// the default Hadoop loader of the paper's "Hadoop" algorithm variants.
func (s *System) LoadPointsHeap(name string, pts []geom.Point) error {
	w, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	for _, p := range pts {
		w.WritePoint(geomio.EncodePoint(p))
	}
	return w.Close()
}

// LoadRegionsHeap stores regions as a heap file.
func (s *System) LoadRegionsHeap(name string, regions []geom.Region) error {
	recs := make([]string, len(regions))
	for i, rg := range regions {
		recs[i] = geomio.EncodeRegion(rg)
	}
	return s.fs.WriteFile(name, recs)
}

// numCells returns the target partition count for a payload of the given
// encoded size.
func (s *System) numCells(totalBytes int64) int {
	bs := s.fs.BlockSize()
	n := int((totalBytes + bs - 1) / bs)
	if n < 1 {
		n = 1
	}
	return n
}

// samplePoints draws a bounded random sample for index construction.
func (s *System) samplePoints(pts []geom.Point) []geom.Point {
	const sampleSize = 10000
	if len(pts) <= sampleSize {
		return pts
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 1))
	sample := make([]geom.Point, sampleSize)
	for i := range sample {
		sample[i] = pts[rng.Intn(len(pts))]
	}
	return sample
}

// LoadPoints spatially partitions and stores points with the given
// technique, writing the global index as the file's master attachment.
// This is SpatialHadoop's indexed file loader.
func (s *System) LoadPoints(name string, pts []geom.Point, t sindex.Technique) (*IndexedFile, error) {
	recs := geomio.EncodePoints(pts)
	var totalBytes int64
	for _, r := range recs {
		totalBytes += int64(len(r)) + 1
	}
	space := geom.RectOf(pts)
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	// Expand slightly so max-edge points fall strictly inside cells.
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	buildStart := time.Now()
	gi := sindex.Build(t, s.samplePoints(pts), space, s.numCells(totalBytes))
	s.recordBuild(time.Since(buildStart), gi)

	byCell := make([][]string, len(gi.Cells))
	for i, p := range pts {
		c := gi.AssignPoint(p)
		byCell[c] = append(byCell[c], recs[i])
		gi.Cells[c].Content = gi.Cells[c].Content.ExpandPoint(p)
	}
	return s.writeIndexed(name, gi, byCell, (*dfs.Writer).WritePoint)
}

// LoadRegions spatially partitions and stores regions. With a disjoint
// technique, regions overlapping several cells are replicated to each
// (paper §2.3); consumers deduplicate with the reference-point rule.
func (s *System) LoadRegions(name string, regions []geom.Region, t sindex.Technique) (*IndexedFile, error) {
	recs := make([]string, len(regions))
	centers := make([]geom.Point, len(regions))
	var totalBytes int64
	space := geom.EmptyRect()
	for i, rg := range regions {
		recs[i] = geomio.EncodeRegion(rg)
		totalBytes += int64(len(recs[i])) + 1
		b := rg.Bounds()
		centers[i] = b.Center()
		space = space.Union(b)
	}
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	buildStart := time.Now()
	gi := sindex.Build(t, s.samplePoints(centers), space, s.numCells(totalBytes))
	s.recordBuild(time.Since(buildStart), gi)

	byCell := make([][]string, len(gi.Cells))
	for i, rg := range regions {
		b := rg.Bounds()
		for _, c := range gi.AssignRect(b) {
			byCell[c] = append(byCell[c], recs[i])
			gi.Cells[c].Content = gi.Cells[c].Content.Union(b)
		}
	}
	return s.writeIndexed(name, gi, byCell, (*dfs.Writer).WriteRecord)
}

// recordBuild registers one global index construction with the metrics.
func (s *System) recordBuild(d time.Duration, gi *sindex.GlobalIndex) {
	s.metrics.Observe(MetricIndexBuildUS, float64(d.Microseconds()))
	s.metrics.Inc(MetricPartitionsCreated, int64(len(gi.Cells)))
}

// recordFill registers the post-assignment partition fill statistics.
func (s *System) recordFill(gi *sindex.GlobalIndex, byCell [][]string) {
	perRecs := make([]int, len(byCell))
	perBytes := make([]int64, len(byCell))
	for i, cellRecs := range byCell {
		perRecs[i] = len(cellRecs)
		for _, r := range cellRecs {
			perBytes[i] += int64(len(r)) + 1
		}
		if len(cellRecs) > 0 {
			s.metrics.Observe(MetricPartitionFill, float64(len(cellRecs)))
		}
	}
	ps := gi.Stats(perRecs, perBytes, s.fs.BlockSize())
	s.metrics.Inc(MetricPartitionsEmpty, int64(ps.Empty))
	s.metrics.Inc(MetricPartitionOverflow, int64(ps.Overflowing))
	s.metrics.SetGauge(GaugePartitionImbalance, ps.Imbalance())
}

// writeIndexed writes the partitioned records — through write, which is
// WritePoint when every record is geomio.EncodePoint of a point — and the
// master index. Queries meet the previous generation until Close publishes
// this one; the writer is created only here, after partitioning, so the two
// overlap in memory for the write loop alone.
func (s *System) writeIndexed(name string, gi *sindex.GlobalIndex, byCell [][]string, write func(*dfs.Writer, string)) (*IndexedFile, error) {
	s.recordFill(gi, byCell)
	w, err := s.fs.CreateOrReplace(name)
	if err != nil {
		return nil, err
	}
	for ci, cellRecs := range byCell {
		if len(cellRecs) == 0 {
			continue
		}
		w.SetPartition(gi.Cells[ci].Key())
		for _, r := range cellRecs {
			write(w, r)
		}
		byCell[ci] = nil // written: free it while the replaced generation is still live
	}
	w.SetMaster(gi.Encode())
	if err := w.Close(); err != nil {
		return nil, err
	}
	return s.Open(name)
}

// Open opens an indexed file, decoding its master index. Opening a heap
// file returns an IndexedFile with a nil Index.
func (s *System) Open(name string) (*IndexedFile, error) {
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return OpenFile(f)
}

// OpenFile is Open over a generation the caller already holds, for callers
// that must plan, key and read one and the same generation.
func OpenFile(f *dfs.File) (*IndexedFile, error) {
	out := &IndexedFile{Name: f.Name, File: f}
	if len(f.Master) > 0 {
		gi, err := sindex.Decode(f.Master)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", f.Name, err)
		}
		out.Index = gi
	}
	return out, nil
}

// Splits is the spatial file splitter: it returns one split per partition
// of an indexed file, carrying the partition boundary and the minimal
// content MBR so that filter functions can prune without reading records.
// For heap files it degrades to one split per block with no spatial
// metadata, matching plain Hadoop.
func (f *IndexedFile) Splits() []*mapreduce.Split {
	if f.Index == nil {
		var splits []*mapreduce.Split
		for _, b := range f.File.Blocks {
			splits = append(splits, &mapreduce.Split{
				MBR:        geom.WorldRect(),
				ContentMBR: geom.EmptyRect(),
				Blocks:     []*dfs.Block{b},
			})
		}
		return splits
	}
	byKey := make(map[string][]*dfs.Block)
	for _, b := range f.File.Blocks {
		byKey[b.Partition] = append(byKey[b.Partition], b)
	}
	var splits []*mapreduce.Split
	for _, cell := range f.Index.Cells {
		blocks := byKey[cell.Key()]
		if len(blocks) == 0 {
			continue
		}
		splits = append(splits, &mapreduce.Split{
			Partition:  cell.Key(),
			MBR:        cell.Boundary,
			ContentMBR: cell.Content,
			Blocks:     blocks,
		})
	}
	return splits
}

// ReadPoints decodes every point record of a file.
func (s *System) ReadPoints(name string) ([]geom.Point, error) {
	return s.ReadPointsCtx(context.Background(), name)
}

// ReadPointsCtx is ReadPoints under a context, so a request trace on the
// context records the underlying DFS read as a span.
func (s *System) ReadPointsCtx(ctx context.Context, name string) ([]geom.Point, error) {
	recs, err := s.fs.ReadAllCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return geomio.DecodePoints(recs)
}

// ReadRegions decodes every region record of a file.
func (s *System) ReadRegions(name string) ([]geom.Region, error) {
	recs, err := s.fs.ReadAll(name)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Region, len(recs))
	for i, r := range recs {
		rg, err := geomio.DecodeRegion(r)
		if err != nil {
			return nil, err
		}
		out[i] = rg
	}
	return out, nil
}
