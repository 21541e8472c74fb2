package ops

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// JoinPair is one spatial join result: the indices of the matching records
// in the left and right inputs are not preserved across the distributed
// runtime, so results carry the record encodings themselves.
type JoinPair struct {
	Left, Right string
}

// SpatialJoinIndexed joins two spatially indexed region files on the
// MBR-intersects predicate (the distributed join of SpatialHadoop). The
// filter step forms one map task per pair of partitions whose record
// extents (content MBRs) intersect. A matching record pair can surface in
// several pair tasks only through replication, which disjoint techniques
// use; the reference-point rule therefore checks, for each *disjoint*
// side, that the overlap's min corner falls in that side's partition, so
// exactly one task reports each match.
func SpatialJoinIndexed(sys *core.System, left, right string) ([]JoinPair, *mapreduce.Report, error) {
	return SpatialJoinIndexedTo(sys, left, right, left+".join.out")
}

// SpatialJoinIndexedTo is SpatialJoinIndexed writing its result to the
// given output file; concurrent joins must use distinct output names.
func SpatialJoinIndexedTo(sys *core.System, left, right, out string) ([]JoinPair, *mapreduce.Report, error) {
	return SpatialJoinIndexedCtx(context.Background(), sys, left, right, out)
}

// SpatialJoinIndexedCtx is SpatialJoinIndexedTo under a context: the job
// runs through RunCtx (admission, cancellation, request-trace spans).
// Pair splits carry no single-input partition key, so the join does not
// feed per-partition heat.
func SpatialJoinIndexedCtx(ctx context.Context, sys *core.System, left, right, out string) ([]JoinPair, *mapreduce.Report, error) {
	lf, err := sys.Open(left)
	if err != nil {
		return nil, nil, err
	}
	rf, err := sys.Open(right)
	if err != nil {
		return nil, nil, err
	}
	lsplits := lf.Splits()
	rsplits := rf.Splits()

	extent := func(s *mapreduce.Split) geom.Rect {
		if !s.ContentMBR.IsEmpty() {
			return s.ContentMBR
		}
		return s.MBR
	}

	var pairs []*mapreduce.Split
	for _, ls := range lsplits {
		for _, rs := range rsplits {
			if !extent(ls).Intersects(extent(rs)) {
				continue
			}
			pairs = append(pairs, &mapreduce.Split{
				Partition: ls.Partition + "*" + rs.Partition,
				MBR:       ls.MBR.Union(rs.MBR),
				Blocks:    ls.Blocks,
				Extra:     rs.Blocks,
				// The per-side boundaries ride the split's Tag so they ship
				// to remote workers with the records.
				Tag: joinTag(ls.MBR, rs.MBR),
			})
		}
	}

	// A side's space is set iff its index is disjoint: the reference-point
	// rule applies to that side, within that space.
	conf := map[string]string{}
	if lf.Index != nil && lf.Index.Disjoint() {
		conf[confJoinLSpace] = geomio.EncodeRect(lf.Index.Space)
	}
	if rf.Index != nil && rf.Index.Disjoint() {
		conf[confJoinRSpace] = geomio.EncodeRect(rf.Index.Space)
	}
	job := &mapreduce.Job{
		Name:   "spatial-join",
		Kind:   "spatial-join",
		Conf:   conf,
		Splits: pairs,
		Output: out,
	}
	rep, err := sys.Cluster().RunCtx(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	return readJoinOutput(ctx, sys, out, rep)
}

// SpatialJoinPBSM joins two heap region files with the
// partition-based spatial merge strategy: map tasks replicate each record
// to the uniform grid cells its MBR overlaps, and each reduce group joins
// one cell with reference-point deduplication. This is the "Hadoop"
// baseline join that needs no pre-built index but reshuffles both inputs.
func SpatialJoinPBSM(sys *core.System, left, right string, gridSide int) ([]JoinPair, *mapreduce.Report, error) {
	if gridSide < 1 {
		gridSide = 8
	}
	// Compute the joint data space (one scan; in Hadoop this is a cheap
	// pre-pass or catalogue statistic).
	space := geom.EmptyRect()
	for _, name := range []string{left, right} {
		regs, err := sys.ReadRegions(name)
		if err != nil {
			return nil, nil, err
		}
		for _, rg := range regs {
			space = space.Union(rg.Bounds())
		}
	}
	if space.IsEmpty() {
		return nil, nil, nil
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))

	// One split per block, tagged with the side it came from.
	var splits []*mapreduce.Split
	for _, spec := range []struct{ name, side string }{{left, "L"}, {right, "R"}} {
		f, err := sys.FS().Open(spec.name)
		if err != nil {
			return nil, nil, err
		}
		for _, b := range f.Blocks {
			splits = append(splits, &mapreduce.Split{
				MBR:    geom.WorldRect(),
				Blocks: []*dfs.Block{b},
				Tag:    spec.side,
			})
		}
	}

	out := left + ".pbsmjoin.out"
	job := &mapreduce.Job{
		Name: "pbsm-join",
		Kind: "pbsm-join",
		Conf: map[string]string{
			confPBSMSide:  strconv.Itoa(gridSide),
			confPBSMSpace: geomio.EncodeRect(space),
		},
		Splits:      splits,
		NumReducers: sys.Cluster().Workers(),
		Output:      out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, err
	}
	return readJoinOutput(context.Background(), sys, out, rep)
}

// pbsmGrid is PBSM's uniform grid over the joint data space.
type pbsmGrid struct {
	space  geom.Rect
	side   int
	cw, ch float64
}

func newPBSMGrid(space geom.Rect, side int) pbsmGrid {
	return pbsmGrid{space: space, side: side, cw: space.Width() / float64(side), ch: space.Height() / float64(side)}
}

func (g pbsmGrid) cellOf(ix, iy int) geom.Rect {
	return geom.Rect{
		MinX: g.space.MinX + float64(ix)*g.cw,
		MinY: g.space.MinY + float64(iy)*g.ch,
		MaxX: g.space.MinX + float64(ix+1)*g.cw,
		MaxY: g.space.MinY + float64(iy)*g.ch + g.ch,
	}
}

func (g pbsmGrid) cellsFor(b geom.Rect) []string {
	x0 := clampi(int((b.MinX-g.space.MinX)/g.cw), g.side)
	x1 := clampi(int((b.MaxX-g.space.MinX)/g.cw), g.side)
	y0 := clampi(int((b.MinY-g.space.MinY)/g.ch), g.side)
	y1 := clampi(int((b.MaxY-g.space.MinY)/g.ch), g.side)
	var keys []string
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			keys = append(keys, cellKey(x, y))
		}
	}
	return keys
}

// mapSplit replicates each record of the split to the grid cells its MBR
// overlaps, prefixed with the side (the split's Tag) it came from.
func (g pbsmGrid) mapSplit(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	for _, rec := range split.Records() {
		rg, err := geomio.DecodeRegion(rec)
		if err != nil {
			return err
		}
		for _, key := range g.cellsFor(rg.Bounds()) {
			ctx.Emit(key, split.Tag+rec)
		}
	}
	return nil
}

// reduceCell joins one grid cell, keeping a match only in the cell that
// owns its reference point.
func (g pbsmGrid) reduceCell(ctx *mapreduce.TaskContext, key string, values []string) error {
	ix, iy := parseCellKey(key)
	cell := g.cellOf(ix, iy)
	var lrecs, rrecs []string
	for _, v := range values {
		if strings.HasPrefix(v, "L") {
			lrecs = append(lrecs, v[1:])
		} else {
			rrecs = append(rrecs, v[1:])
		}
	}
	return planeSweepJoin(lrecs, rrecs, func(lrec, rrec string, overlap geom.Rect) {
		ref := geom.Point{X: overlap.MinX, Y: overlap.MinY}
		if ownsRef(cell, g.space, ref) {
			ctx.Write(lrec + "\t" + rrec)
		}
	})
}

// planeSweepJoin reports every pair of regions with intersecting MBRs via
// a sweep over x.
func planeSweepJoin(lrecs, rrecs []string, report func(lrec, rrec string, overlap geom.Rect)) error {
	type item struct {
		rec string
		b   geom.Rect
	}
	parse := func(recs []string) ([]item, error) {
		out := make([]item, len(recs))
		for i, r := range recs {
			rg, err := geomio.DecodeRegion(r)
			if err != nil {
				return nil, err
			}
			out[i] = item{rec: r, b: rg.Bounds()}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].b.MinX < out[j].b.MinX })
		return out, nil
	}
	ls, err := parse(lrecs)
	if err != nil {
		return err
	}
	rs, err := parse(rrecs)
	if err != nil {
		return err
	}
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		if ls[i].b.MinX <= rs[j].b.MinX {
			for k := j; k < len(rs) && rs[k].b.MinX <= ls[i].b.MaxX; k++ {
				if ls[i].b.Intersects(rs[k].b) {
					report(ls[i].rec, rs[k].rec, ls[i].b.Intersect(rs[k].b))
				}
			}
			i++
		} else {
			for k := i; k < len(ls) && ls[k].b.MinX <= rs[j].b.MaxX; k++ {
				if ls[k].b.Intersects(rs[j].b) {
					report(ls[k].rec, rs[j].rec, ls[k].b.Intersect(rs[j].b))
				}
			}
			j++
		}
	}
	return nil
}

func readJoinOutput(ctx context.Context, sys *core.System, out string, rep *mapreduce.Report) ([]JoinPair, *mapreduce.Report, error) {
	recs, err := sys.FS().ReadAllCtx(ctx, out)
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]JoinPair, 0, len(recs))
	for _, r := range recs {
		i := strings.IndexByte(r, '\t')
		if i < 0 {
			continue
		}
		pairs = append(pairs, JoinPair{Left: r[:i], Right: r[i+1:]})
	}
	return pairs, rep, nil
}

func clampi(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func cellKey(x, y int) string {
	return "g" + strconv.Itoa(x) + "_" + strconv.Itoa(y)
}

func parseCellKey(key string) (int, int) {
	body := strings.TrimPrefix(key, "g")
	parts := strings.Split(body, "_")
	if len(parts) != 2 {
		return 0, 0
	}
	x, _ := strconv.Atoi(parts[0])
	y, _ := strconv.Atoi(parts[1])
	return x, y
}
