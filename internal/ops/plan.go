package ops

import (
	"cmp"
	"context"
	"math"
	"slices"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// The query plan. A range, kNN, plot or join query over a two-level index
// is one plan whichever engine answers it: a filter step chooses the
// partitions to search — or, for a join, the pairs of partitions — by
// their Split.Cover, kNN decides between one round and two, and
// candidates merge under one canonical order. The engines —
// a MapReduce job, the in-memory local executor, the sharded
// scatter/gather — are drivers that only fetch the fragments of the
// partitions the plan kept, so they agree on every answer by
// construction, and report what they searched back to the plan, which
// alone keeps the query's explain stats and partition heat.

// RangeCandidates is the filter step of a range query: every split that may
// hold a record intersecting query, in split order. It tests Cover, not
// MBR: overlapping techniques hold records (a point routed later, a region
// assigned by least enlargement) outside their sample-derived boundary.
func RangeCandidates(splits []*mapreduce.Split, query geom.Rect) []*mapreduce.Split {
	var kept []*mapreduce.Split
	for _, sp := range splits {
		if sp.Cover().Intersects(query) {
			kept = append(kept, sp)
		}
	}
	return kept
}

// KNNCandidate is a point with its distance to the query point — the form
// candidates take between serving shards (it is the wire type) and in the
// plan's merge.
type KNNCandidate = mapreduce.WireKNNCandidate

// compareCandidates is the canonical kNN candidate order: nearer first,
// ties by point — cmp.Compare on X, then on Y — and last by the
// coordinates' bit patterns, so -0 and +0, or two NaN payloads, never tie
// and the order is total. Every candidate set — per partition, per round —
// is sorted with it before truncating to k, so the chosen top k and their
// order never depend on which engine or which scan produced them.
func compareCandidates(a, b KNNCandidate) int {
	bits := func(v float64) int64 { return int64(math.Float64bits(v)) }
	return cmp.Or(cmp.Compare(a.Dist, b.Dist),
		cmp.Compare(a.P.X, b.P.X), cmp.Compare(a.P.Y, b.P.Y),
		cmp.Compare(bits(a.P.X), bits(b.P.X)), cmp.Compare(bits(a.P.Y), bits(b.P.Y)))
}

// sortCandidates sorts canonically and truncates to k. Truncating a
// partition's set before the merge is safe: a candidate outside its own
// partition's top k can never be in the merged top k.
func sortCandidates(cands []KNNCandidate, k int) []KNNCandidate {
	slices.SortFunc(cands, compareCandidates)
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
func planKNN(ctx context.Context, splits []*mapreduce.Split, disjoint bool, q geom.Point, k int,
	round func(context.Context, []*mapreduce.Split) ([]KNNCandidate, error)) ([]geom.Point, error) {
	run := func(kept []*mapreduce.Split) ([]KNNCandidate, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands, err := round(ctx, kept)
		return sortCandidates(cands, k), err
	}

	// Round 1: the smallest-area partition whose boundary or cover holds
	// q (the boundary, so a q between record bounds finds its owner), or —
	// when q lies outside all of them — everything.
	var home *mapreduce.Split
	for _, sp := range splits {
		if r := sp.MBR.Union(sp.Cover()); r.ContainsPoint(q) && (home == nil || r.Area() < home.MBR.Union(home.Cover()).Area()) {
			home = sp
		}
	}
	first := splits
	if home != nil {
		first = []*mapreduce.Split{home}
	}
	cands, err := run(first)
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
		// Round 2: every partition within radius of q.
		second := splits
		if radius > 0 {
			second = nil
			for _, sp := range splits {
				if sp.Cover().MinDistPoint(q) <= radius {
					second = append(second, sp)
				}
			}
		}
		if cands, err = run(second); err != nil {
			return nil, err
		}
	}
	pts := make([]geom.Point, len(cands))
	for i, c := range cands {
		pts[i] = c.P
	}
	return pts, nil
}

// LocalStats describes one execution of a plan, whichever engine drove it,
// for explain output. The partition counts describe the final round (so
// consulted+pruned == total); a join's count both inputs.
type LocalStats struct {
	// PartitionsTotal/Consulted/Pruned partition the final round's splits:
	// every split was either searched or pruned by its cover.
	PartitionsTotal     int
	PartitionsConsulted int
	PartitionsPruned    int
	// Rounds is 1 or 2 (kNN protocol); always 1 for range and join.
	Rounds int
}

// Plan is the query plan bound to one file for every engine: it runs the
// filter steps and rounds above and keeps the per-query bookkeeping —
// Stats and the system's hot-partition telemetry. A driver reports each
// partition it searched through Searched.
type Plan struct {
	Stats LocalStats

	f   *Indexed
	hot *sindex.Hotness
}

// Indexed is a file opened for planning: its name, its splits and whether
// its index tiles space disjointly. A heap file plans as a non-disjoint
// index whose splits, one per block, all cover everything. Opening groups
// the blocks into splits, so a caller answering many queries over one file
// generation resolves it once (the serving layer keys it by DFS epoch) and
// binds a Plan per query. Read-only once built.
type Indexed struct {
	Name     string
	Splits   []*mapreduce.Split
	Disjoint bool
	// Space is the index's space; empty for a heap file.
	Space geom.Rect
}

// NewIndexed resolves one generation of a file, indexed or heap.
func NewIndexed(f *dfs.File) *Indexed {
	idx := &Indexed{Name: f.Name, Splits: mapreduce.SplitsOf(f), Space: geom.EmptyRect()}
	if f.Index != nil {
		idx.Disjoint, idx.Space = f.Index.Disjoint(), f.Index.Space
	}
	return idx
}

// planFile binds a plan to the current generation of file, indexed or
// heap: the job drivers' plan for a caller that names the file.
func planFile(sys *core.System, file string) (*Plan, error) {
	f, err := sys.FS().Open(file)
	if err != nil {
		return nil, err
	}
	return NewPlan(sys, NewIndexed(f)), nil
}

// NewPlan plans one query over f.
func NewPlan(sys *core.System, f *Indexed) *Plan {
	return &Plan{f: f, hot: sys.Hotness()}
}

// filtered records one round's filter step: its scan/prune decisions feed
// the hotness aggregator exactly once per round.
func (p *Plan) filtered(kept []*mapreduce.Split) {
	p.Stats.Rounds++
	p.Stats.PartitionsTotal = len(p.f.Splits)
	p.Stats.PartitionsConsulted = len(kept)
	p.Stats.PartitionsPruned = len(p.f.Splits) - len(kept)
	recordFilterHeat(p.hot, p.f.Name, p.f.Splits, kept)
}

// recordFilterHeat counts one filter step: a scan for every kept split, a
// prune for every other. kept must be a subsequence of splits, which is
// what every pruning filter returns. Heap splits (no partition key) are
// not heat-tracked.
func recordFilterHeat(hot *sindex.Hotness, file string, splits, kept []*mapreduce.Split) {
	for _, s := range splits {
		if len(kept) > 0 && kept[0] == s {
			hot.RecordScan(file, s.Partition)
			kept = kept[1:]
		} else {
			hot.RecordPrune(file, s.Partition)
		}
	}
}

// Searched records one kept partition's fragment: the records it holds and
// how many of them the search returned. Drivers call it once per fragment,
// from the goroutine that gathers them.
func (p *Plan) Searched(sp *mapreduce.Split, records, matches int) {
	p.hot.AddRecords(p.f.Name, sp.Partition, int64(records))
	p.hot.AddMatches(p.f.Name, sp.Partition, int64(matches))
}

// runJob is the MapReduce driver's half of one filter step: it runs job
// over the plan's splits with kept, the step's outcome, as its filter
// phase, so the job report's split counts are the plan's.
func (p *Plan) runJob(ctx context.Context, sys *core.System, job *mapreduce.Job, kept []*mapreduce.Split) (*mapreduce.Report, error) {
	job.Splits = p.f.Splits
	job.Filter = func([]*mapreduce.Split) []*mapreduce.Split { return kept }
	return sys.Cluster().RunCtx(ctx, job)
}

// jobSearched reports every partition a selecting job searched, with the
// records its map task's winning attempt selected.
func (p *Plan) jobSearched(kept []*mapreduce.Split, rep *mapreduce.Report) {
	for i, sp := range kept {
		p.Searched(sp, sp.NumRecords(), int(rep.Tasks[i].Selected))
	}
}

// Range runs a range query's filter step and returns the partitions the
// driver must search, in split order.
func (p *Plan) Range(ctx context.Context, query geom.Rect) ([]*mapreduce.Split, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kept := RangeCandidates(p.f.Splits, query)
	p.filtered(kept)
	return kept, nil
}

// KNN runs the kNN protocol; fetch returns the PartitionKNNCandidates of
// every kept partition (reporting each through Searched), in any order.
func (p *Plan) KNN(ctx context.Context, q geom.Point, k int, fetch func(ctx context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error)) ([]geom.Point, error) {
	return planKNN(ctx, p.f.Splits, p.f.Disjoint, q, k, func(ctx context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
		p.filtered(kept)
		return fetch(ctx, kept)
	})
}

// Join runs a join's filter step, a join of the global indexes of the
// plan's file (the left input) and right: one pair split per pair of
// partitions whose covers meet, left-major in split order, carrying both
// sides' blocks and, in its Tag, both boundaries for the reference-point
// rule. A partition of either input is scanned if it joins some pair.
func (p *Plan) Join(ctx context.Context, right *Indexed) ([]*mapreduce.Split, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keptL, keptR := meeting(p.f.Splits, right.Splits), meeting(right.Splits, p.f.Splits)
	var pairs []*mapreduce.Split
	for _, l := range keptL {
		for _, r := range keptR {
			if l.Cover().Intersects(r.Cover()) {
				pairs = append(pairs, &mapreduce.Split{Partition: l.Partition + "*" + r.Partition,
					MBR: l.MBR.Union(r.MBR), Blocks: l.Blocks, Extra: r.Blocks, Tag: joinTag(l.MBR, r.MBR)})
			}
		}
	}
	total, kept := len(p.f.Splits)+len(right.Splits), len(keptL)+len(keptR)
	p.Stats = LocalStats{PartitionsTotal: total, PartitionsConsulted: kept, PartitionsPruned: total - kept, Rounds: 1}
	recordFilterHeat(p.hot, p.f.Name, p.f.Splits, keptL)
	recordFilterHeat(p.hot, right.Name, right.Splits, keptR)
	return pairs, nil
}

// meeting returns the splits of a whose cover meets a cover in b, in
// split order.
func meeting(a, b []*mapreduce.Split) []*mapreduce.Split {
	var kept []*mapreduce.Split
	for _, s := range a {
		if slices.ContainsFunc(b, func(o *mapreduce.Split) bool { return s.Cover().Intersects(o.Cover()) }) {
			kept = append(kept, s)
		}
	}
	return kept
}
