package cg

import (
	"fmt"
	"strconv"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/voronoi"
)

// SiteRegion is one Voronoi diagram entry: a site and its region clipped
// to the data space.
type SiteRegion struct {
	Site   geom.Point
	Region geom.Polygon
}

// VoronoiStats reports the pruning power of the safe-region rule
// (paper Fig. 22b): how many sites survive each merge level.
type VoronoiStats struct {
	Sites              int
	CarriedAfterLocal  int
	CarriedAfterVMerge int
}

// VoronoiSingle is the single-machine baseline: one in-memory Voronoi
// diagram of all sites, with every region clipped to the data space.
func VoronoiSingle(sites []geom.Point, space geom.Rect) []SiteRegion {
	vd := voronoi.New(sites)
	out := make([]SiteRegion, vd.NumSites())
	for i := range out {
		out[i] = SiteRegion{Site: vd.Site(i), Region: vd.Region(i, space)}
	}
	return out
}

// Record formats of the distributed Voronoi pipeline.
const (
	vdFinalPrefix = "R|"   // final region: R|site|ring
	vdCarryN      = "C|N|" // carried, region still to be produced
	vdCarryS      = "C|S|" // carried support, region already emitted
)

// encodeCarried serializes one carried site; support marks a site whose
// region is already emitted and which travels only for its position.
func encodeCarried(support bool, site geom.Point) string {
	if support {
		return vdCarryS + geomio.EncodePoint(site)
	}
	return vdCarryN + geomio.EncodePoint(site)
}

// decodeCarried parses carried-site records into the sites and, beside
// each, whether it is support.
func decodeCarried(recs []string) (sites []geom.Point, support []bool, err error) {
	sites, support = make([]geom.Point, len(recs)), make([]bool, len(recs))
	for i, rec := range recs {
		body, ok := strings.CutPrefix(rec, vdCarryN)
		if !ok {
			if body, support[i] = strings.CutPrefix(rec, vdCarryS); !support[i] {
				return nil, nil, fmt.Errorf("cg: bad carried site record %q", rec)
			}
		}
		if sites[i], err = geomio.DecodePoint(body); err != nil {
			return nil, nil, err
		}
	}
	return sites, support, nil
}

func encodeSiteRegion(site geom.Point, region geom.Polygon) string {
	return vdFinalPrefix + geomio.EncodePoint(site) + "|" +
		geomio.EncodeRegion(geom.RegionOf(region))
}

func decodeSiteRegion(rec string) (SiteRegion, error) {
	body := strings.TrimPrefix(rec, vdFinalPrefix)
	i := strings.IndexByte(body, '|')
	if i < 0 {
		return SiteRegion{}, fmt.Errorf("cg: bad voronoi region record %q", rec)
	}
	site, err := geomio.DecodePoint(body[:i])
	if err != nil {
		return SiteRegion{}, err
	}
	rg, err := geomio.DecodeRegion(body[i+1:])
	if err != nil {
		return SiteRegion{}, err
	}
	var ring geom.Polygon
	if len(rg.Rings) > 0 {
		ring = rg.Rings[0]
	}
	return SiteRegion{Site: site, Region: ring}, nil
}

// emitCarried classifies and serializes the carried site set of one merge
// level: every non-safe site plus its Delaunay neighbours (the "support"
// sites whose regions are already final but whose positions the next merge
// needs to reconstruct boundary geometry). alreadyEmitted marks sites
// whose regions have been flushed at this or a previous level.
func emitCarried(vd *voronoi.Diagram, safe []bool, alreadyEmitted []bool, emit func(rec string)) (carried int) {
	support := make([]bool, vd.NumSites())
	for i := range safe {
		if safe[i] {
			continue
		}
		for _, j := range vd.Neighbors(i) {
			if safe[j] || alreadyEmitted[j] {
				support[j] = true
			}
		}
	}
	for i := range safe {
		switch {
		case !safe[i] && !alreadyEmitted[i]:
			emit(encodeCarried(false, vd.Site(i)))
			carried++
		case support[i]:
			emit(encodeCarried(true, vd.Site(i)))
			carried++
		}
	}
	return carried
}

// VoronoiSHadoop builds the Voronoi diagram of a spatially indexed points
// file with the algorithm of paper §5.2: local VDs per partition flush
// safe regions immediately (pruning), a V-merge reducer per column merges
// the survivors and flushes newly safe regions, and the H-merge step on
// the master finishes the boundary sites. The file must be indexed with
// grid or STR+ partitioning (columns must be separable by vertical lines).
func VoronoiSHadoop(sys *core.System, file string) ([]SiteRegion, *mapreduce.Report, *VoronoiStats, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Index == nil {
		return nil, nil, nil, errNotIndexed("voronoi", file)
	}
	if f.Index.Technique != sindex.Grid && f.Index.Technique != sindex.STRPlus {
		return nil, nil, nil, fmt.Errorf(
			"cg: voronoi V/H-merge requires column-separable partitions (grid or str+), file %q uses %v",
			file, f.Index.Technique)
	}
	space := f.Index.Space
	out := file + ".voronoi.out"
	job := &mapreduce.Job{
		Name:        "voronoi",
		Kind:        "voronoi",
		Splits:      f.Splits(),
		NumReducers: sys.Cluster().Workers(),
		Conf:        map[string]string{confSpace: geomio.EncodeRect(space)},
		Output:      out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, nil, err
	}

	// H-merge (paper's CommitJob): read back final regions and carried
	// sites, compute the diagram of the carried boundary sites and finish
	// their regions on the master.
	recs, err := sys.FS().ReadAll(out)
	if err != nil {
		return nil, nil, nil, err
	}
	var regions []SiteRegion
	var carriedRecs []string
	for _, rec := range recs {
		if !strings.HasPrefix(rec, vdFinalPrefix) {
			carriedRecs = append(carriedRecs, rec)
			continue
		}
		sr, err := decodeSiteRegion(rec)
		if err != nil {
			return nil, nil, nil, err
		}
		regions = append(regions, sr)
	}
	carried, carriedEmitted, err := decodeCarried(carriedRecs)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(carried) > 0 {
		vd := voronoi.New(carried)
		for i := range carried {
			if !carriedEmitted[i] {
				regions = append(regions, SiteRegion{Site: vd.Site(i), Region: vd.Region(i, space)})
			}
		}
	}
	stats := &VoronoiStats{
		Sites:              int(f.File.Records),
		CarriedAfterLocal:  int(rep.Counters["cg.vd.carried.local"]),
		CarriedAfterVMerge: int(rep.Counters["cg.vd.carried.vmerge"]),
	}
	return regions, rep, stats, nil
}

// VoronoiHadoop is the pre-existing Hadoop construction of paper §5.1
// (Akdogan et al.): points are range-partitioned into vertical strips, a
// reducer builds each strip's diagram in parallel, and the merge step runs
// on a single machine over the full diagram — the bottleneck the
// SpatialHadoop algorithm removes. Strips cannot flush any region early
// because non-spatial block placement gives no disjointness guarantee
// until the shuffle, and the merge sees every site.
func VoronoiHadoop(sys *core.System, file string, space geom.Rect) ([]SiteRegion, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	strips := sys.Cluster().Workers()
	out := file + ".voronoi-hadoop.out"
	job := &mapreduce.Job{
		Name:        "voronoi-hadoop",
		Kind:        "voronoi-hadoop",
		Splits:      f.Splits(),
		NumReducers: strips,
		Conf:        map[string]string{confSpace: geomio.EncodeRect(space), confStrips: strconv.Itoa(strips)},
		Output:      out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, err
	}
	recs, err := sys.FS().ReadAll(out)
	if err != nil {
		return nil, nil, err
	}
	sites, _, err := decodeCarried(recs)
	if err != nil {
		return nil, nil, err
	}
	return VoronoiSingle(sites, space), rep, nil
}

// voronoiMap builds the partition's local diagram, flushes its safe regions
// and carries the rest to its column's V-merge.
func voronoiMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	pts, err := split.Points()
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return nil
	}
	vd := voronoi.New(pts)
	safe, _ := vd.SafeSitesFrontier(split.MBR)
	for i, ok := range safe {
		if ok {
			ctx.Write(encodeSiteRegion(vd.Site(i), vd.Region(i, split.MBR)))
			ctx.Inc(CounterFlushedEarly, 1)
		}
	}
	// Column key: the x-range of the partition; grid and STR+
	// cells of one column share it exactly.
	col := strconv.FormatFloat(split.MBR.MinX, 'g', 17, 64) + "," +
		strconv.FormatFloat(split.MBR.MaxX, 'g', 17, 64)
	n := emitCarried(vd, safe, make([]bool, len(safe)), func(rec string) { ctx.Emit(col, rec) })
	ctx.Inc(CounterIntermediatePoints, int64(n))
	ctx.Inc("cg.vd.carried.local", int64(n))
	return nil
}

// voronoiVMerge merges one column of partitions: one group per column.
func voronoiVMerge(ctx *mapreduce.TaskContext, key string, values []string) error {
	space, err := geomio.DecodeRect(ctx.Config(confSpace))
	if err != nil {
		return err
	}
	parts := strings.SplitN(key, ",", 2)
	minX, err1 := strconv.ParseFloat(parts[0], 64)
	maxX, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("cg: bad voronoi column key %q", key)
	}
	strip := geom.Rect{MinX: minX, MinY: space.MinY, MaxX: maxX, MaxY: space.MaxY}

	sites, preEmitted, err := decodeCarried(values)
	if err != nil {
		return err
	}
	if len(sites) == 0 {
		return nil
	}
	vd := voronoi.New(sites)
	safe, _ := vd.SafeSitesFrontier(strip)
	for i := range sites {
		if safe[i] && !preEmitted[i] {
			ctx.Write(encodeSiteRegion(vd.Site(i), vd.Region(i, strip)))
			ctx.Inc(CounterFlushedEarly, 1)
		}
	}
	n := emitCarried(vd, safe, preEmitted, ctx.Write)
	ctx.Inc("cg.vd.carried.vmerge", int64(n))
	return nil
}

// voronoiStripMap range-partitions the points into vertical strips of space.
func voronoiStripMap(space geom.Rect, strips int) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		pts, err := split.Points()
		if err != nil {
			return err
		}
		w := space.Width() / float64(strips)
		for _, p := range pts {
			s := int((p.X - space.MinX) / w)
			if s < 0 {
				s = 0
			}
			if s >= strips {
				s = strips - 1
			}
			ctx.Emit(strconv.Itoa(s), geomio.EncodePoint(p))
		}
		return nil
	}
}

// voronoiStripReduce builds one strip's diagram.
func voronoiStripReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	pts, err := geomio.DecodePoints(values)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return nil
	}
	// The strip diagram is built in parallel, but without disjoint
	// partition metadata no region can be proven final: every site
	// is forwarded to the single-machine merge.
	voronoi.NewDelaunay(pts)
	for _, p := range pts {
		ctx.Write(encodeCarried(false, p))
		ctx.Inc(CounterIntermediatePoints, 1)
	}
	return nil
}
