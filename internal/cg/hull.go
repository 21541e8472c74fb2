package cg

import (
	"math"
	"slices"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// ConvexHullSingle is the single-machine baseline: Andrew's monotone chain
// (paper §7).
func ConvexHullSingle(pts []geom.Point) []geom.Point {
	return geom.ConvexHull(pts)
}

// HullFilter is the SpatialHadoop convex hull filter (paper §7.2): a
// partition can contribute to the hull only if it survives the skyline
// filter in at least one of the four quadrants, so the filter keeps the
// union of the four skyline-filter selections.
func HullFilter(splits []*mapreduce.Split) []*mapreduce.Split {
	keep := make(map[*mapreduce.Split]bool)
	for _, quad := range []geom.Quadrant{geom.QuadMaxMax, geom.QuadMaxMin, geom.QuadMinMax, geom.QuadMinMin} {
		for _, s := range skylineFilterQuad(splits, quad) {
			keep[s] = true
		}
	}
	var out []*mapreduce.Split
	for _, s := range splits {
		if keep[s] {
			out = append(out, s)
		}
	}
	return out
}

// ConvexHullHadoop computes the hull of a heap points file (paper §7.1).
func ConvexHullHadoop(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
	return runHull(sys, file, nil)
}

// ConvexHullSHadoop computes the hull of an indexed points file with the
// four-skylines filter step (paper §7.2).
func ConvexHullSHadoop(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
	return runHull(sys, file, HullFilter)
}

func runHull(sys *core.System, file string, filter mapreduce.FilterFunc) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	out := file + ".hull.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{
		Name: "convexhull", Kind: "convexhull", Splits: f.Splits(), Filter: filter, Output: out,
	})
	if err != nil {
		return nil, nil, err
	}
	pts, err := sys.ReadPoints(out)
	if err != nil {
		return nil, nil, err
	}
	return geom.ConvexHull(pts), rep, nil
}

// arc is a closed angular interval [from, to] on the direction circle,
// wrapping modulo 2π when to < from.
type arc struct{ from, to float64 }

func normAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// boxAheadArc returns the arc of directions v for which the entire box b
// lies in the half-plane {x : <x - t, v> >= 0}, i.e. directions where some
// point of the box's partition certainly projects ahead of t (paper Fig.
// 16a: the arc between the two directions perpendicular to the tangents
// from t to the box). ok is false when no such direction exists (t inside
// or touching the box).
func boxAheadArc(t geom.Point, b geom.Rect) (arc, bool) {
	// Intersect the four half-circle constraints angle(v) ∈
	// [angle(c-t)-π/2, angle(c-t)+π/2] as a running arc.
	lo, hi := -math.Pi, math.Pi // offsets relative to first corner angle
	corners := b.Corners()
	base := math.Atan2(corners[0].Y-t.Y, corners[0].X-t.X)
	for _, c := range corners {
		d := c.Sub(t)
		if d.Norm() == 0 {
			return arc{}, false
		}
		ang := math.Atan2(d.Y, d.X)
		// Offset of this corner's constraint center from base, in (-π, π].
		off := math.Atan2(math.Sin(ang-base), math.Cos(ang-base))
		if off-math.Pi/2 > lo {
			lo = off - math.Pi/2
		}
		if off+math.Pi/2 < hi {
			hi = off + math.Pi/2
		}
	}
	if lo > hi {
		return arc{}, false
	}
	return arc{from: normAngle(base + lo), to: normAngle(base + hi)}, true
}

// ownBlockedArc returns the directions in which some *other* vertex of the
// local hull projects at least as far as vertex i: the complement of the
// open arc of outward normals between the two edges adjacent to i.
func ownBlockedArc(hull []geom.Point, i int) (arc, bool) {
	n := len(hull)
	if n < 2 {
		return arc{}, false
	}
	if n == 2 {
		// The other point wins on its own half-circle.
		o := hull[1-i]
		d := o.Sub(hull[i])
		ang := math.Atan2(d.Y, d.X)
		return arc{from: normAngle(ang - math.Pi/2), to: normAngle(ang + math.Pi/2)}, true
	}
	prev := hull[(i-1+n)%n]
	next := hull[(i+1)%n]
	t := hull[i]
	// Outward normals of the CCW edges (prev, t) and (t, next).
	n1 := normAngle(math.Atan2(t.Y-prev.Y, t.X-prev.X) - math.Pi/2)
	n2 := normAngle(math.Atan2(next.Y-t.Y, next.X-t.X) - math.Pi/2)
	// t is the strict maximum only for directions strictly inside the arc
	// from n1 to n2 (going CCW); everywhere else another vertex ties or
	// wins.
	return arc{from: n2, to: n1}, true
}

// interval is an arc of directions unrolled onto the line, from a to b.
type interval struct{ a, b float64 }

// compareIntervals orders intervals by start; it is < 0 exactly when
// x.a < y.a.
func compareIntervals(x, y interval) int {
	switch {
	case x.a < y.a:
		return -1
	case y.a < x.a:
		return 1
	}
	return 0
}

// arcsCoverCircle reports whether the union of the arcs covers the entire
// direction circle. Coverage is decided with a small slack so that keeping
// a vertex (returning false) is favoured near ties — discarding is the
// action that must be certain.
func arcsCoverCircle(arcs []arc) bool {
	if len(arcs) == 0 {
		return false
	}
	const eps = 1e-12
	// Unroll wrapping arcs into [0, 4π).
	var ivs []interval
	for _, c := range arcs {
		a, b := c.from, c.to
		if b < a {
			b += 2 * math.Pi
		}
		ivs = append(ivs, interval{a, b}, interval{a + 2*math.Pi, b + 2*math.Pi})
	}
	slices.SortFunc(ivs, compareIntervals)
	// Sweep from the start of the first arc; the circle is covered iff we
	// can chain arcs across a full 2π span.
	start := ivs[0].a
	reach := start
	for _, v := range ivs {
		if v.a > reach+eps {
			return false
		}
		if v.b > reach {
			reach = v.b
		}
		if reach >= start+2*math.Pi-eps {
			return true
		}
	}
	return false
}

// ConvexHullEnhanced is the more scalable SpatialHadoop hull of paper
// §7.3: every map task computes its local hull and discards each vertex
// whose infeasible-direction set I_t covers the whole circle — using the
// exact arc for its own partition and the conservative box arcs (Theorem
// 3) for every other partition, whose content MBRs are broadcast. A final
// reducer computes the hull of the few survivors.
func ConvexHullEnhanced(sys *core.System, file string) ([]geom.Point, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	if f.Index == nil {
		return nil, nil, errNotIndexed("convexhull-enhanced", file)
	}
	splits := f.Splits()
	// Broadcast all partition content MBRs.
	var mbrs []string
	for _, s := range splits {
		mbrs = append(mbrs, geomio.EncodeRect(s.Cover()))
	}
	out := file + ".hull-enh.out"
	job := &mapreduce.Job{
		Name:   "convexhull-enhanced",
		Kind:   "convexhull-enhanced",
		Splits: splits,
		Conf:   map[string]string{confMBRs: strings.Join(mbrs, ";")},
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
	return geom.ConvexHull(pts), rep, nil
}

// hullEnhancedMap is the enhanced hull's map body: boxes are every
// partition's content MBR, the split's own among them.
func hullEnhancedMap(boxes []geom.Rect) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		pts, err := split.Points()
		if err != nil {
			return err
		}
		hull := geom.ConvexHull(pts)
		self := split.Cover()
		for i, t := range hull {
			arcs := make([]arc, 0, len(boxes)+1)
			if a, ok := ownBlockedArc(hull, i); ok {
				arcs = append(arcs, a)
			}
			for _, b := range boxes {
				if b.IsEmpty() || b == self {
					continue
				}
				if a, ok := boxAheadArc(t, b); ok {
					arcs = append(arcs, a)
				}
			}
			if !arcsCoverCircle(arcs) {
				ctx.Emit("1", geomio.EncodePoint(t))
				ctx.Inc(CounterIntermediatePoints, 1)
			}
		}
		return nil
	}
}

func decodeRects(s string) ([]geom.Rect, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]geom.Rect, len(parts))
	for i, p := range parts {
		r, err := geomio.DecodeRect(p)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
