package ops

import (
	"context"
	"sort"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// The query plan. A point range or kNN query over a two-level index is one
// plan whichever engine answers it: a filter step chooses the partitions
// to search (Split.Cover geometry, then the optional bitmap filter), kNN
// decides between one round and two, and candidates merge under one
// canonical order. The engines — a MapReduce job, the in-memory local
// executor, the sharded scatter/gather — are drivers that only fetch the
// fragments of the partitions the plan kept, so they agree on every answer
// by construction.

// Selection is one filter step's outcome: the splits to search, in split
// order, and how the bitmap probes went.
type Selection struct {
	Kept []*mapreduce.Split
	// SFilterHits counts bitmap probes that passed; SFilterSkips counts
	// partitions the bitmap proved empty although their cover is in reach
	// (pruning the geometry test alone would have missed).
	SFilterHits  int
	SFilterSkips int
}

// selectSplits keeps the splits whose cover is in reach and, when a bitmap
// filter is maintained, whose bitmap may hold a record inside probe.
func selectSplits(splits []*mapreduce.Split, sf *sindex.SFilter, probe geom.Rect, inReach func(*mapreduce.Split) bool) Selection {
	var sel Selection
	for _, sp := range splits {
		if !inReach(sp) {
			continue
		}
		if sf != nil {
			if !sf.MayIntersect(sp.Partition, probe) {
				sel.SFilterSkips++
				continue
			}
			sel.SFilterHits++
		}
		sel.Kept = append(sel.Kept, sp)
	}
	return sel
}

// RangeCandidates is the filter step of a range query: every split that may
// hold a record intersecting query. It tests Cover, not MBR: overlapping
// techniques hold records (a point routed later, a region assigned by
// least enlargement) outside their sample-derived boundary. sf, the
// bitmap filter of a points file, may be nil (geometry pruning only).
func RangeCandidates(splits []*mapreduce.Split, sf *sindex.SFilter, query geom.Rect) Selection {
	return selectSplits(splits, sf, query, func(sp *mapreduce.Split) bool {
		return sp.Cover().Intersects(query)
	})
}

// KNNCandidate is a point record with its distance to the query point —
// the form candidates take in the kNN shuffle, between serving shards (it
// is the wire type) and in the plan's merge.
type KNNCandidate = mapreduce.WireKNNCandidate

// LessKNNCandidate is the canonical kNN candidate order: nearer first, ties
// by record text. Every candidate set — per partition, per reduce, per
// round — is sorted with it before truncating to k, so the chosen top k
// never depends on which R-tree shape or which engine produced it.
func LessKNNCandidate(a, b KNNCandidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Rec < b.Rec
}

// sortCandidates sorts canonically and truncates to k. Truncating a
// partition's set before the merge is safe: a candidate outside its own
// partition's top k can never be in the merged top k.
func sortCandidates(cands []KNNCandidate, k int) []KNNCandidate {
	sort.Slice(cands, func(i, j int) bool { return LessKNNCandidate(cands[i], cands[j]) })
	if len(cands) > k {
		cands = cands[:max(k, 0)]
	}
	return cands
}

// planKNN is the two-round kNN protocol of SpatialHadoop. Round one
// searches only the partition containing q; if its k-th distance reaches
// past what that partition owns, round two searches every partition the
// correctness circle reaches. round is the driver's half: the
// tie-complete k-nearest candidates of every kept split, in any order.
// The context is checked before each round.
func planKNN(ctx context.Context, splits []*mapreduce.Split, disjoint bool, sf *sindex.SFilter, q geom.Point, k int,
	round func(context.Context, Selection) ([]KNNCandidate, error)) ([]geom.Point, error) {
	run := func(sel Selection) ([]KNNCandidate, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands, err := round(ctx, sel)
		return sortCandidates(cands, k), err
	}

	// Round 1: the smallest-area partition whose cover contains q, or —
	// when q lies outside every cover — everything.
	var home *mapreduce.Split
	for _, sp := range splits {
		if sp.Cover().ContainsPoint(q) && (home == nil || sp.Cover().Area() < home.Cover().Area()) {
			home = sp
		}
	}
	first := splits
	if home != nil {
		first = []*mapreduce.Split{home}
	}
	cands, err := run(Selection{Kept: first})
	if err != nil {
		return nil, err
	}

	// The correctness circle: with k candidates in hand, nothing farther
	// than the k-th can enter the answer. Fewer than k leaves it unbounded
	// (radius 0 below means "no bound", also when the k-th sits on q).
	radius := 0.0
	if k > 0 && len(cands) == k {
		radius = cands[k-1].Dist
	}
	circle := geom.Rect{MinX: q.X - radius, MinY: q.Y - radius, MaxX: q.X + radius, MaxY: q.Y + radius}
	// Round one is final if it searched everything, or if a single disjoint
	// partition owns the whole circle. Ownership needs the boundary tiling
	// (MBR) and only holds for disjoint techniques: an overlapping
	// partition's rectangle containing the circle says nothing about which
	// partition holds the points inside it.
	final := k < 1 || len(first) == len(splits) ||
		(len(cands) == k && disjoint && home.MBR.ContainsRect(circle))
	if !final {
		// Round 2: every partition within radius of q. The bitmap probe
		// rectangle is the circle's bounding box: a record within radius
		// of q lies inside it, so an empty bitmap range proves the
		// partition contributes nothing.
		second := Selection{Kept: splits}
		if radius > 0 {
			second = selectSplits(splits, sf, circle, func(sp *mapreduce.Split) bool {
				return sp.Cover().MinDistPoint(q) <= radius
			})
		}
		if cands, err = run(second); err != nil {
			return nil, err
		}
	}
	pts := make([]geom.Point, len(cands))
	for i, c := range cands {
		if pts[i], err = geomio.DecodePoint(c.Rec); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// LocalStats describes one execution by an engine that searches partitions
// itself (local, sharded), for explain output. Mirroring the MapReduce
// report, the partition counts describe the final round (so
// consulted+pruned == total); sFilter counts accumulate across rounds.
type LocalStats struct {
	// PartitionsTotal/Consulted/Pruned partition the final round's splits:
	// every split was either searched or pruned (by geometry or filter).
	PartitionsTotal     int
	PartitionsConsulted int
	PartitionsPruned    int
	SFilterHits         int
	SFilterSkips        int
	// Rounds is 1 or 2 (kNN protocol); always 1 for range.
	Rounds int
}

// Plan is the query plan bound to one indexed file for the engines that
// search partitions themselves: it runs the filter steps and rounds above
// and keeps the per-query bookkeeping — Stats and the system's
// hot-partition telemetry — that the MapReduce driver gets from its job
// (withHeat in the filter phase, task counters folded after the run).
type Plan struct {
	Stats LocalStats

	f   *Indexed
	sf  *sindex.SFilter
	hot *sindex.Hotness
}

// Indexed is an indexed file opened for planning: its name, its partition
// splits and whether the index tiles space disjointly. Opening decodes the
// index text and groups the blocks into splits, so a caller answering many
// queries over one file generation resolves it once (the serving layer
// keys it by DFS epoch) and binds a Plan per query. Read-only once built.
type Indexed struct {
	Name     string
	Splits   []*mapreduce.Split
	Disjoint bool
}

// NewIndexed resolves an open indexed file (f.Index must be set).
func NewIndexed(f *core.IndexedFile) *Indexed {
	return &Indexed{Name: f.Name, Splits: f.Splits(), Disjoint: f.Index.Disjoint()}
}

// NewPlan plans one query over f. sf is the file generation's bitmap
// filter, or nil when none is kept.
func NewPlan(sys *core.System, f *Indexed, sf *sindex.SFilter) *Plan {
	return &Plan{f: f, sf: sf, hot: sys.Hotness()}
}

// filtered records one round's filter step: its scan/prune decisions feed
// the hotness aggregator exactly once per round, as withHeat does per job.
func (p *Plan) filtered(sel Selection) {
	p.Stats.Rounds++
	p.Stats.PartitionsTotal = len(p.f.Splits)
	p.Stats.PartitionsConsulted = len(sel.Kept)
	p.Stats.PartitionsPruned = len(p.f.Splits) - len(sel.Kept)
	p.Stats.SFilterHits += sel.SFilterHits
	p.Stats.SFilterSkips += sel.SFilterSkips
	recordFilterHeat(p.hot, p.f.Name, p.f.Splits, sel.Kept)
}

// Searched records one kept partition's fragment: the records it holds and
// how many of them the search returned. Drivers call it once per fragment,
// from the goroutine that gathers them.
func (p *Plan) Searched(sp *mapreduce.Split, records, matches int) {
	p.hot.AddRecords(p.f.Name, sp.Partition, int64(records))
	p.hot.AddMatches(p.f.Name, sp.Partition, int64(matches))
}

// Range runs a range query's filter step and returns the partitions the
// driver must search, in split order.
func (p *Plan) Range(ctx context.Context, query geom.Rect) ([]*mapreduce.Split, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sel := RangeCandidates(p.f.Splits, p.sf, query)
	p.filtered(sel)
	return sel.Kept, nil
}

// KNN runs the kNN protocol; fetch returns the PartitionKNNCandidates of
// every kept partition (reporting each through Searched), in any order.
func (p *Plan) KNN(ctx context.Context, q geom.Point, k int, fetch func(ctx context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error)) ([]geom.Point, error) {
	return planKNN(ctx, p.f.Splits, p.f.Disjoint, p.sf, q, k, func(ctx context.Context, sel Selection) ([]KNNCandidate, error) {
		p.filtered(sel)
		return fetch(ctx, sel.Kept)
	})
}
