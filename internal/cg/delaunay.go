package cg

import (
	"fmt"
	"slices"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/voronoi"
)

// Triangle is one Delaunay triangle, vertices in canonical order.
type Triangle struct {
	A, B, C geom.Point
}

// canonicalTriangle orders the vertices so equal triangles compare equal.
func canonicalTriangle(a, b, c geom.Point) Triangle {
	v := []geom.Point{a, b, c}
	slices.SortFunc(v, geom.Point.Compare)
	return Triangle{A: v[0], B: v[1], C: v[2]}
}

func encodeTriangle(t Triangle) string {
	return geomio.EncodePoint(t.A) + " " + geomio.EncodePoint(t.B) + " " + geomio.EncodePoint(t.C)
}

func decodeTriangle(s string) (Triangle, error) {
	parts := strings.Fields(s)
	if len(parts) != 3 {
		return Triangle{}, fmt.Errorf("cg: bad triangle record %q", s)
	}
	var v [3]geom.Point
	for i, p := range parts {
		pt, err := geomio.DecodePoint(p)
		if err != nil {
			return Triangle{}, err
		}
		v[i] = pt
	}
	return canonicalTriangle(v[0], v[1], v[2]), nil
}

// DelaunaySingle computes the Delaunay triangulation of the sites on one
// machine; triangles are returned in canonical form.
func DelaunaySingle(sites []geom.Point) []Triangle {
	vd := voronoi.New(sites)
	tris := vd.Triangles()
	out := make([]Triangle, 0, len(tris))
	for _, t := range tris {
		out = append(out, canonicalTriangle(vd.Site(t[0]), vd.Site(t[1]), vd.Site(t[2])))
	}
	return out
}

// DelaunaySHadoop computes the Delaunay triangulation of a disjointly
// indexed points file — the companion operation the paper names next to
// the Voronoi diagram as "always producing an output several times larger
// than the input" (§3). It reuses the dangerous-zone machinery:
//
//   - Map (per partition): build the local triangulation, classify sites
//     with the safety rule, and flush every triangle whose three vertices
//     are safe — their incident circumcircles lie inside the partition, so
//     no outside site can break the empty-circle property. Carry the
//     non-safe sites plus their local Delaunay neighbours.
//   - Reduce: triangulate the carried boundary sites and emit the
//     triangles incident to at least one non-safe site. Every not-yet
//     -emitted triangle of the global triangulation has a non-safe vertex,
//     all of whose global neighbours were carried, so its geometry is
//     reconstructed exactly; triangles whose vertices are all support
//     sites were already emitted by their home partitions.
func DelaunaySHadoop(sys *core.System, file string) ([]Triangle, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	if f.Index == nil || !f.Index.Disjoint() {
		return nil, nil, errNotDisjoint("delaunay", file)
	}
	out := file + ".delaunay.out"
	job := &mapreduce.Job{
		Name:   "delaunay",
		Kind:   "delaunay",
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
	tris := make([]Triangle, 0, len(recs))
	for _, r := range recs {
		t, err := decodeTriangle(r)
		if err != nil {
			return nil, nil, err
		}
		tris = append(tris, t)
	}
	return tris, rep, nil
}

// delaunayMap flushes the partition's all-safe triangles and carries the
// non-safe sites with their neighbours.
func delaunayMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	pts, err := split.Points()
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return nil
	}
	vd := voronoi.New(pts)
	safe, _ := vd.SafeSitesFrontier(split.MBR)
	for _, t := range vd.Triangles() {
		if safe[t[0]] && safe[t[1]] && safe[t[2]] {
			ctx.Write(encodeTriangle(canonicalTriangle(
				vd.Site(t[0]), vd.Site(t[1]), vd.Site(t[2]))))
			ctx.Inc(CounterFlushedEarly, 1)
		}
	}
	n := emitCarried(vd, safe, make([]bool, len(safe)), func(rec string) { ctx.Emit("1", rec) })
	ctx.Inc(CounterIntermediatePoints, int64(n))
	return nil
}

// delaunayReduce triangulates the carried sites and emits the triangles
// with a non-safe vertex.
func delaunayReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	sites, support, err := decodeCarried(values)
	if err != nil {
		return err
	}
	if len(sites) < 3 {
		return nil
	}
	vd := voronoi.New(sites)
	for _, t := range vd.Triangles() {
		if !support[t[0]] || !support[t[1]] || !support[t[2]] {
			ctx.Write(encodeTriangle(canonicalTriangle(
				vd.Site(t[0]), vd.Site(t[1]), vd.Site(t[2]))))
		}
	}
	return nil
}
