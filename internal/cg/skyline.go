package cg

import (
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// SkylineSingle is the single-machine baseline: the in-memory
// divide-and-conquer skyline (paper §6).
func SkylineSingle(pts []geom.Point) []geom.Point {
	return geom.Skyline(pts)
}

// SkylineFilter is the SpatialHadoop filter step of paper §6.2 (Algorithm
// 4, lines 3–11): a cell is pruned when another cell's guaranteed points
// dominate its entire content MBR. It returns the surviving splits.
func SkylineFilter(splits []*mapreduce.Split) []*mapreduce.Split {
	return skylineFilterQuad(splits, geom.QuadMaxMax)
}

// skylineFilterQuad is SkylineFilter in any quadrant: the convex hull
// filter runs it in all four.
func skylineFilterQuad(splits []*mapreduce.Split, quad geom.Quadrant) []*mapreduce.Split {
	var selected []*mapreduce.Split
	for _, c := range splits {
		dominated := false
		for _, s := range selected {
			if geom.RectDominatedByQuad(c.Cover(), s.Cover(), quad) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		// Remove previously selected cells now dominated by c.
		keep := selected[:0]
		for _, s := range selected {
			if !geom.RectDominatedByQuad(s.Cover(), c.Cover(), quad) {
				keep = append(keep, s)
			}
		}
		selected = append(keep, c)
	}
	return selected
}

// SkylineHadoop computes the skyline of a heap points file (paper §6.1):
// every block is processed; local skylines meet in one reducer.
func SkylineHadoop(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
	return runSkyline(sys, file, false)
}

// SkylineSHadoop computes the skyline of a spatially indexed points file
// (paper §6.2): the filter step prunes dominated partitions before any
// record is read.
func SkylineSHadoop(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
	return runSkyline(sys, file, true)
}

func runSkyline(sys *core.System, file string, filtered bool) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	var filter mapreduce.FilterFunc
	if filtered {
		filter = SkylineFilter
	}
	out := file + ".skyline.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{
		Name: "skyline", Kind: "skyline", Splits: f.Splits(), Filter: filter, Output: out,
	})
	if err != nil {
		return nil, nil, err
	}
	pts, err := sys.ReadPoints(out)
	if err != nil {
		return nil, nil, err
	}
	return geom.Skyline(pts), rep, nil
}

// DominancePowerSet returns SKY, the skyline of the union of every cell's
// dominance-power set (the top-left and bottom-right corners of its
// minimal content MBR), per paper §6.3. Any point dominated by SKY cannot
// be on the final skyline (Theorem 2).
func DominancePowerSet(splits []*mapreduce.Split) []geom.Point {
	var corners []geom.Point
	for _, s := range splits {
		c := s.Cover()
		if c.IsEmpty() {
			continue
		}
		corners = append(corners, c.TopLeft(), c.BottomRight())
	}
	return geom.Skyline(corners)
}

// ReduceSKYForCell selects the at-most-4-point subset SKY(c) of SKY with
// the same dominance power over cell c (paper Theorem 4); it is the
// communication optimization of Appendix B.
func ReduceSKYForCell(sky []geom.Point, c geom.Rect) []geom.Point {
	var out []geom.Point
	// R1: strictly beyond the top-right corner — any such point dominates
	// the whole cell.
	for _, p := range sky {
		if p.X > c.MaxX && p.Y > c.MaxY {
			return []geom.Point{p}
		}
	}
	var leftmostR4, rightmostR2 *geom.Point
	for i := range sky {
		p := sky[i]
		switch {
		case p.X >= c.MinX && p.X <= c.MaxX && p.Y >= c.MinY && p.Y <= c.MaxY:
			out = append(out, p) // R3: inside the cell
		case p.X >= c.MinX && p.X <= c.MaxX && p.Y > c.MaxY:
			if rightmostR2 == nil || p.X > rightmostR2.X {
				rightmostR2 = &sky[i]
			}
		case p.X > c.MaxX && p.Y >= c.MinY && p.Y <= c.MaxY:
			if leftmostR4 == nil || p.X < leftmostR4.X {
				leftmostR4 = &sky[i]
			}
		}
	}
	if rightmostR2 != nil {
		out = append(out, *rightmostR2)
	}
	if leftmostR4 != nil {
		out = append(out, *leftmostR4)
	}
	return out
}

// SkylineOutputSensitive computes the skyline as a single map-only job
// (paper §6.3): the global dominance power set SKY is broadcast; each
// partition writes the part of the final skyline it owns directly to the
// output, with no merge step to bottleneck on. The file must be indexed
// with a disjoint technique. When reduceComm is true, each task uses only
// the Theorem-4 subset SKY(c) of at most four points.
func SkylineOutputSensitive(sys *core.System, file string, reduceComm bool) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	if f.Index == nil || !f.Index.Disjoint() {
		return nil, nil, errNotDisjoint("skyline-os", file)
	}
	splits := f.Splits()
	sky := DominancePowerSet(splits)
	skyEnc := make([]string, len(sky))
	for i, p := range sky {
		skyEnc[i] = geomio.EncodePoint(p)
	}
	out := file + ".skyline-os.out"
	conf := map[string]string{confSky: strings.Join(skyEnc, " ")}
	if reduceComm {
		conf[confSkyReduceComm] = "1"
	}
	job := &mapreduce.Job{
		Name:   "skyline-os",
		Kind:   "skyline-os",
		Splits: splits,
		Filter: SkylineFilter,
		Conf:   conf,
		Output: out,
	}
	rep, err := sys.Cluster().Run(job)
	if err != nil {
		return nil, nil, err
	}
	pts, err := sys.ReadPoints(out)
	if err != nil {
		return nil, nil, err
	}
	return sortPoints(pts), rep, nil
}

// skylineOSMap is the output-sensitive skyline's map body: a partition
// writes the points of its local skyline that no point of the broadcast
// dominance power set dominates.
func skylineOSMap(sky []geom.Point, reduceComm bool) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		skyPts := sky
		if reduceComm {
			skyPts = ReduceSKYForCell(sky, split.Cover())
		}
		ctx.Inc("cg.sky.points.shipped", int64(len(skyPts)))
		pts, err := split.Points()
		if err != nil {
			return err
		}
		for _, p := range geom.Skyline(pts) {
			dominated := false
			for _, s := range skyPts {
				if s.Dominates(p) {
					dominated = true
					break
				}
			}
			if !dominated {
				ctx.Write(geomio.EncodePoint(p))
				ctx.Inc(CounterFlushedEarly, 1)
			}
		}
		return nil
	}
}
