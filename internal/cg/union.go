package cg

import (
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dsu"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// UnionSingle is the single-machine polygon union of paper §4.1: a
// grouping step clusters transitively-overlapping polygons with a
// disjoint-set structure, and a merging step computes each group's union
// independently. It returns the union as a multi-ring region plus its
// canonical boundary segments.
func UnionSingle(polys []geom.Polygon) (geom.Region, []geom.Segment) {
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	return unionGrouped(regions)
}

// unionGrouped groups overlapping regions (paper §4.1 grouping step, via
// DSU over MBR-overlap candidates refined by true intersection) and unions
// each group separately (merging step). It returns the combined result and
// the canonical boundary segments.
func unionGrouped(regions []geom.Region) (geom.Region, []geom.Segment) {
	groups, segs := unionGroups(regions)
	var rings []geom.Polygon
	for _, g := range groups {
		rings = append(rings, g.Rings...)
	}
	return geom.Region{Rings: rings}, segs
}

// unionGroups unions each connected group of overlapping regions
// independently and returns one multi-ring region per group. Keeping a
// group's rings together in one record is essential: a ring describing a
// hole only means "hole" in the company of its enclosing ring.
func unionGroups(regions []geom.Region) ([]geom.Region, []geom.Segment) {
	n := len(regions)
	if n == 0 {
		return nil, nil
	}
	d := dsu.New(n)
	// Candidate pairs by MBR overlap (a grid-accelerated self spatial
	// join); the DSU makes each accepted merge nearly free, so only the
	// geometric intersection test matters.
	bounds := make([]geom.Rect, n)
	for i, rg := range regions {
		bounds[i] = rg.Bounds()
	}
	for _, pair := range geom.OverlapCandidates(bounds) {
		i, j := pair[0], pair[1]
		if d.Same(i, j) {
			continue
		}
		if regionsTouch(regions[i], regions[j]) {
			d.Union(i, j)
		}
	}
	var groups []geom.Region
	var allSegs []geom.Segment
	for _, group := range d.Groups() {
		if len(group) == 1 {
			rg := regions[group[0]]
			groups = append(groups, rg)
			allSegs = append(allSegs, rg.Edges()...)
			continue
		}
		members := make([]geom.Region, len(group))
		for k, idx := range group {
			members[k] = regions[idx]
		}
		merged, segs := geom.UnionRegions(members)
		groups = append(groups, merged)
		allSegs = append(allSegs, segs...)
	}
	return groups, geom.CanonicalizeSegments(allSegs)
}

// regionsTouch reports whether two regions share any point.
func regionsTouch(a, b geom.Region) bool {
	for _, ra := range a.Rings {
		for _, rb := range b.Rings {
			if ra.Intersects(rb) {
				return true
			}
		}
	}
	return false
}

// The "union" kind is the shared Hadoop/SpatialHadoop union job (Algorithm
// 1): the map computes the local union of its split and emits each
// resulting region with a constant key; the single reducer unions the
// local results.

func unionMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	regions, err := decodeRegions(split.Records())
	if err != nil {
		return err
	}
	groups, _ := unionGroups(regions)
	for _, g := range groups {
		ctx.Emit("1", geomio.EncodeRegion(g))
		ctx.Inc(CounterIntermediatePoints, int64(g.VertexCount()))
	}
	return nil
}

func unionReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	regions, err := decodeRegions(values)
	if err != nil {
		return err
	}
	groups, _ := unionGroups(regions)
	for _, g := range groups {
		ctx.Write(geomio.EncodeRegion(g))
	}
	return nil
}

// UnionHadoop computes the polygon union of a heap region file (paper
// §4.2): the default loader scatters polygons randomly, so the local union
// step removes few edges and nearly all work lands on the single reducer.
func UnionHadoop(sys *core.System, file string) (geom.Region, *mapreduce.Report, error) {
	return runUnion(sys, file)
}

// UnionSHadoop computes the polygon union of a spatially indexed region
// file (paper §4.3): adjacent polygons share partitions, so the local
// union step removes most interior edges before the merge.
func UnionSHadoop(sys *core.System, file string) (geom.Region, *mapreduce.Report, error) {
	return runUnion(sys, file)
}

func runUnion(sys *core.System, file string) (geom.Region, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return geom.Region{}, nil, err
	}
	out := file + ".union.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{Name: "union", Kind: "union", Splits: f.Splits(), Output: out})
	if err != nil {
		return geom.Region{}, nil, err
	}
	regions, err := sys.ReadRegions(out)
	if err != nil {
		return geom.Region{}, nil, err
	}
	var rings []geom.Polygon
	for _, rg := range regions {
		rings = append(rings, rg.Rings...)
	}
	return geom.Region{Rings: rings}, rep, nil
}

// UnionEnhanced is the enhanced SpatialHadoop union of paper §4.4: a
// map-only job over a disjoint spatial index. Each map task computes its
// local union and prunes the result to its partition boundary; every
// boundary segment of the global union is produced by exactly one
// partition, so no merge step exists at all. The output is the union
// boundary as clipped segments.
func UnionEnhanced(sys *core.System, file string) ([]geom.Segment, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	if f.Index == nil || !f.Index.Disjoint() {
		return nil, nil, errNotDisjoint("union-enhanced", file)
	}
	out := file + ".union-enh.out"
	job := &mapreduce.Job{
		Name:   "union-enhanced",
		Kind:   "union-enhanced",
		Splits: f.Splits(),
		Output: out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, err
	}
	recs, err := sys.FS().ReadAll(out)
	if err != nil {
		return nil, nil, err
	}
	segs, err := geomio.DecodeSegments(recs)
	if err != nil {
		return nil, nil, err
	}
	return geom.CanonicalizeSegments(segs), rep, nil
}

// unionEnhancedMap unions the split locally and writes the part of the
// boundary inside the partition.
func unionEnhancedMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	regions, err := decodeRegions(split.Records())
	if err != nil {
		return err
	}
	_, segs := unionGrouped(regions)
	clipped := geom.ClipBoundaryToRect(segs, split.MBR)
	for _, s := range clipped {
		ctx.Write(geomio.EncodeSegment(s))
		ctx.Inc(CounterFlushedEarly, 1)
	}
	return nil
}

func decodeRegions(recs []string) ([]geom.Region, error) {
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
