package ops

import (
	"context"
	"fmt"
	"slices"
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
// plan's filter step (Plan.Join) forms one map task per pair of
// partitions whose covers intersect. A matching record pair can surface
// in several pair tasks only through replication, which disjoint
// techniques use; the reference-point rule therefore checks, for each
// *disjoint* side, that the overlap's min corner falls in that side's
// partition, so exactly one task reports each match.
func SpatialJoinIndexed(sys *core.System, left, right string) ([]JoinPair, *mapreduce.Report, error) {
	return SpatialJoinIndexedTo(sys, left, right, left+".join.out")
}

// SpatialJoinIndexedTo is SpatialJoinIndexed writing its result to the
// given output file; concurrent joins must use distinct output names.
func SpatialJoinIndexedTo(sys *core.System, left, right, out string) ([]JoinPair, *mapreduce.Report, error) {
	plan, err := planFile(sys, left)
	if err != nil {
		return nil, nil, err
	}
	rf, err := sys.FS().Open(right)
	if err != nil {
		return nil, nil, err
	}
	return SpatialJoinIndexedCtx(context.Background(), sys, plan, NewIndexed(rf), out)
}

// SpatialJoinIndexedCtx is SpatialJoinIndexedTo driven by a plan bound to
// the left input and under a context: the plan's filter step pairs the
// partitions (recording both inputs' partition heat), and the job runs
// through RunCtx (admission, cancellation, request-trace spans).
func SpatialJoinIndexedCtx(ctx context.Context, sys *core.System, plan *Plan, right *Indexed, out string) ([]JoinPair, *mapreduce.Report, error) {
	pairs, err := plan.Join(ctx, right)
	if err != nil {
		return nil, nil, err
	}
	// A side's space is set iff its index is disjoint: the reference-point
	// rule applies to that side, within that space.
	conf := map[string]string{}
	if plan.f.Disjoint {
		conf[confJoinLSpace] = geomio.EncodeRect(plan.f.Space)
	}
	if right.Disjoint {
		conf[confJoinRSpace] = geomio.EncodeRect(right.Space)
	}
	rep, err := sys.Cluster().RunCtx(ctx, &mapreduce.Job{
		Name:   "spatial-join",
		Kind:   "spatial-join",
		Conf:   conf,
		Splits: pairs,
		Output: out,
	})
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
	// One split per block, tagged with the side it came from; the joint
	// data space is the union of the blocks' MBRs (in Hadoop a cheap
	// pre-pass or catalogue statistic).
	space := geom.EmptyRect()
	var splits []*mapreduce.Split
	for _, spec := range []struct{ name, side string }{{left, "L"}, {right, "R"}} {
		f, err := sys.FS().Open(spec.name)
		if err != nil {
			return nil, nil, err
		}
		for _, b := range f.Blocks {
			if err := b.VerifyCached(); err != nil {
				return nil, nil, fmt.Errorf("ops: %s: %w", spec.name, err)
			}
			rects, err := b.Bounds()
			if err != nil {
				return nil, nil, err
			}
			for _, r := range rects {
				space = space.Union(r)
			}
			splits = append(splits, &mapreduce.Split{
				MBR:    geom.WorldRect(),
				Blocks: []*dfs.Block{b},
				Tag:    spec.side,
			})
		}
	}
	if space.IsEmpty() {
		return nil, nil, nil
	}
	space = space.Buffer(1e-9 * (1 + space.Width() + space.Height()))

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
	for _, b := range split.Blocks {
		rects, err := b.Bounds()
		if err != nil {
			return err
		}
		for i, r := range rects {
			for _, key := range g.cellsFor(r) {
				ctx.Emit(key, split.Tag+b.Record(i))
			}
		}
	}
	return nil
}

// reduceCell joins one grid cell, keeping a match only in the cell that
// owns its reference point.
func (g pbsmGrid) reduceCell(ctx *mapreduce.TaskContext, key string, values []string) error {
	ix, iy := parseCellKey(key)
	cell := g.cellOf(ix, iy)
	// The shuffle carries text: the one place the join parses regions.
	var ls, rs []joinItem
	for _, v := range values {
		rg, err := geomio.DecodeRegion(v[1:])
		if err != nil {
			return err
		}
		it := joinItem{rec: v[1:], b: rg.Bounds()}
		if strings.HasPrefix(v, "L") {
			ls = append(ls, it)
		} else {
			rs = append(rs, it)
		}
	}
	planeSweepJoin(ls, rs, func(lrec, rrec string, overlap geom.Rect) {
		ref := geom.Point{X: overlap.MinX, Y: overlap.MinY}
		if ownsRef(cell, g.space, ref) {
			ctx.Write(lrec + "\t" + rrec)
		}
	})
	return nil
}

// joinItem is one record of a join input and its MBR.
type joinItem struct {
	rec string
	b   geom.Rect
}

// blockItems pairs the records of blocks with the MBRs the blocks hold.
func blockItems(blocks []*dfs.Block) ([]joinItem, error) {
	n := 0
	for _, b := range blocks {
		n += b.NumRecords()
	}
	out := make([]joinItem, 0, n)
	for _, b := range blocks {
		rects, err := b.Bounds()
		if err != nil {
			return nil, err
		}
		for i, r := range rects {
			out = append(out, joinItem{rec: b.Record(i), b: r})
		}
	}
	return out, nil
}

// planeSweepJoin reports every pair of items with intersecting MBRs via a
// sweep over x. It sorts both inputs in place by MinX.
func planeSweepJoin(ls, rs []joinItem, report func(lrec, rrec string, overlap geom.Rect)) {
	byMinX := func(a, b joinItem) int {
		switch {
		case a.b.MinX < b.b.MinX:
			return -1
		case a.b.MinX > b.b.MinX:
			return 1
		}
		return 0
	}
	slices.SortFunc(ls, byMinX)
	slices.SortFunc(rs, byMinX)
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
