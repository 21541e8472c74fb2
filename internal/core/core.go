// Package core is the SpatialHadoop system facade: it ties the block file
// system, the MapReduce runtime and the spatial index layer together. It
// provides the spatial file loaders (heap and indexed), the spatial file
// splitter that turns an indexed file into MBR-carrying splits for the
// filter functions, and pruning statistics. An indexed loader writes each
// partition in its local order — points by (X, Y), regions by MBR MinX —
// which is the local index the query layers read: a pinned point
// partition is its sorted column, and the join sweeps regions in MinX
// order.
package core

import (
	"context"
	"math/rand"
	"slices"
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
// global index its loader built (nil for a heap file), shared, read-only.
type IndexedFile struct {
	Name  string
	File  *dfs.File
	Index *sindex.GlobalIndex
}

// LoadPointsHeap stores points as a heap (non-indexed) file: records are
// written in input order and split into blocks with no spatial awareness —
// the default Hadoop loader of the paper's "Hadoop" algorithm variants.
// The text lengths the blocks are cut by are measured in parallel, and
// the points written as one run of a copy of pts: the blocks are views of
// the run, and must not alias the caller's slice.
func (s *System) LoadPointsHeap(name string, pts []geom.Point) error {
	w, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	lens, _, _ := measurePoints(pts)
	w.WritePoints(slices.Clone(pts), lens)
	return w.Close()
}

// LoadRegionsHeap stores regions as a heap file, one run of their text
// and MBRs in input order.
func (s *System) LoadRegionsHeap(name string, regions []geom.Region) error {
	w, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	recs, rects := make([]string, len(regions)), make([]geom.Rect, len(regions))
	for i, rg := range regions {
		recs[i], rects[i] = geomio.EncodeRegion(rg), rg.Bounds()
	}
	w.WriteRegions(recs, rects)
	return w.Close()
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
// technique, attaching the global index to the file (dfs.File.Index).
// This is SpatialHadoop's indexed file loader. Each cell is written in
// its local order, (X, then Y) as cmp.Compare orders them with ties in
// input order: the order ops.PinSplit and the CG local steps sort into,
// so their sorts meet a sorted run. The points are stored as points;
// their text lengths, which size the partitions and cut the blocks, are
// measured, the points assigned and laid out by cell, and each cell
// radix-sorted and gathered into one cell-ordered column, all in
// parallel (cells.go); each cell is then written as one run of that
// column, its blocks views of it. The file is the same whatever
// GOMAXPROCS is.
func (s *System) LoadPoints(name string, pts []geom.Point, t sindex.Technique) (*IndexedFile, error) {
	lens, totalBytes, space := measurePoints(pts)
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	// Expand slightly so max-edge points fall strictly inside cells.
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	buildStart := time.Now()
	gi := sindex.Build(t, s.samplePoints(pts), space, s.numCells(totalBytes))
	s.recordBuild(time.Since(buildStart), gi)

	byCell, starts, largest := groupByCell(len(pts), len(gi.Cells), func(i int, dst []int32) []int32 {
		return append(dst, int32(gi.AssignPoint(pts[i])))
	})
	col, colLens, cellBytes := make([]geom.Point, len(pts)), make([]uint8, len(pts)), make([]int64, len(byCell))
	parallel(len(byCell), func(sb *sortBufs, c int) {
		sb.get(largest) // sizes the scratch once, to the largest cell
		sortPointCell(byCell[c], pts, sb)
		content, bytes := gi.Cells[c].Content, int64(0)
		for k, i := range byCell[c] {
			col[starts[c]+k], colLens[starts[c]+k] = pts[i], lens[i]
			content, bytes = content.ExpandPoint(pts[i]), bytes+int64(lens[i])+1
		}
		gi.Cells[c].Content, cellBytes[c] = content, bytes
	})
	return s.writeIndexed(name, gi, starts, cellBytes, func(w *dfs.Writer, lo, hi int) {
		w.WritePoints(col[lo:hi], colLens[lo:hi])
	})
}

// LoadRegions spatially partitions and stores regions. With a disjoint
// technique, regions overlapping several cells are replicated to each
// (paper §2.3); consumers deduplicate with the reference-point rule. Each
// cell is written in the join's plane-sweep order, by MBR MinX with ties
// in input order, laid out, sorted and gathered in parallel as LoadPoints
// does, and written as one run of text and MBRs.
func (s *System) LoadRegions(name string, regions []geom.Region, t sindex.Technique) (*IndexedFile, error) {
	recs := make([]string, len(regions))
	bounds := make([]geom.Rect, len(regions))
	centers := make([]geom.Point, len(regions))
	totalBytes, space := measureChunks(len(regions), func(lo, hi int) (int64, geom.Rect) {
		var total int64
		mbr := geom.EmptyRect()
		for i := lo; i < hi; i++ {
			recs[i] = geomio.EncodeRegion(regions[i])
			total += int64(len(recs[i])) + 1
			bounds[i] = regions[i].Bounds()
			centers[i] = bounds[i].Center()
			mbr = mbr.Union(bounds[i])
		}
		return total, mbr
	})
	if space.IsEmpty() {
		space = geom.NewRect(0, 0, 1, 1)
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))
	buildStart := time.Now()
	gi := sindex.Build(t, s.samplePoints(centers), space, s.numCells(totalBytes))
	s.recordBuild(time.Since(buildStart), gi)

	byCell, starts, largest := groupByCell(len(regions), len(gi.Cells), func(i int, dst []int32) []int32 {
		for _, c := range gi.AssignRect(bounds[i]) {
			dst = append(dst, int32(c))
		}
		return dst
	})
	n := starts[len(byCell)] // a replicated region is placed once per cell
	cellRecs, cellRects, cellBytes := make([]string, n), make([]geom.Rect, n), make([]int64, len(byCell))
	parallel(len(byCell), func(sb *sortBufs, c int) {
		sb.get(largest) // sizes the scratch once, to the largest cell
		sortRegionCell(byCell[c], bounds, sb)
		content, bytes := gi.Cells[c].Content, int64(0)
		for k, i := range byCell[c] {
			cellRecs[starts[c]+k], cellRects[starts[c]+k] = recs[i], bounds[i]
			content, bytes = content.Union(bounds[i]), bytes+int64(len(recs[i]))+1
		}
		gi.Cells[c].Content, cellBytes[c] = content, bytes
	})
	return s.writeIndexed(name, gi, starts, cellBytes, func(w *dfs.Writer, lo, hi int) {
		w.WriteRegions(cellRecs[lo:hi], cellRects[lo:hi])
	})
}

// recordBuild registers one global index construction with the metrics.
func (s *System) recordBuild(d time.Duration, gi *sindex.GlobalIndex) {
	s.metrics.Observe(MetricIndexBuildUS, float64(d.Microseconds()))
	s.metrics.Inc(MetricPartitionsCreated, int64(len(gi.Cells)))
}

// writeIndexed registers the partition fill statistics, writes the
// partitioned records — cell c is records [starts[c], starts[c+1]) of the
// cell-ordered layout, cellBytes[c] bytes of text, and write(w, lo, hi)
// writes records [lo, hi) as one run (WritePoints, WriteRegions) — and
// attaches the global index. Queries meet the previous generation until
// Close publishes this one.
func (s *System) writeIndexed(name string, gi *sindex.GlobalIndex, starts []int, cellBytes []int64, write func(w *dfs.Writer, lo, hi int)) (*IndexedFile, error) {
	perRecs := make([]int, len(cellBytes))
	for c := range perRecs {
		if perRecs[c] = starts[c+1] - starts[c]; perRecs[c] > 0 {
			s.metrics.Observe(MetricPartitionFill, float64(perRecs[c]))
		}
	}
	ps := gi.Stats(perRecs, cellBytes, s.fs.BlockSize())
	s.metrics.Inc(MetricPartitionsEmpty, int64(ps.Empty))
	s.metrics.Inc(MetricPartitionOverflow, int64(ps.Overflowing))
	s.metrics.SetGauge(GaugePartitionImbalance, ps.Imbalance())
	w, err := s.fs.CreateOrReplace(name)
	if err != nil {
		return nil, err
	}
	for c, n := range perRecs {
		if n > 0 {
			w.SetPartition(gi.Cells[c].Key())
			write(w, starts[c], starts[c+1])
		}
	}
	w.SetIndex(gi)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return s.Open(name)
}

// Open opens a file: its published generation and the global index its
// loader attached, nil for a heap file. It fails only on a missing file.
func (s *System) Open(name string) (*IndexedFile, error) {
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &IndexedFile{Name: f.Name, File: f, Index: f.Index}, nil
}

// Splits returns the file's default splits (mapreduce.SplitsOf): one per
// partition of an indexed file, one per block of a heap file.
func (f *IndexedFile) Splits() []*mapreduce.Split { return mapreduce.SplitsOf(f.File) }

// ReadPoints decodes every point record of a file.
func (s *System) ReadPoints(name string) ([]geom.Point, error) {
	return s.ReadPointsCtx(context.Background(), name)
}

// ReadPointsCtx is ReadPoints under a context, so a request trace on the
// context records the underlying DFS read as a span. A column block — a
// range job's matches — is read as the points it holds, with no parse.
func (s *System) ReadPointsCtx(ctx context.Context, name string) ([]geom.Point, error) {
	return s.fs.ReadPointsCtx(ctx, name)
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
