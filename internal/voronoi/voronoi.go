package voronoi

import (
	"math"

	"spatialhadoop/internal/geom"
)

// Diagram is the Voronoi diagram of a set of sites, backed by their
// Delaunay triangulation (the dual).
type Diagram struct {
	d         *Delaunay
	neighbors [][]int
	onHull    []bool
	// circum[i] are the circumcircles (center, radius) of the Delaunay
	// triangles incident to site i; their union is the site's dangerous
	// zone (paper Fig. 9).
	circum [][]circle
}

type circle struct {
	c geom.Point
	r float64
}

// New computes the Voronoi diagram of the sites.
func New(sites []geom.Point) *Diagram {
	d := NewDelaunay(sites)
	vd := &Diagram{d: d}
	vd.neighbors, vd.onHull = d.Neighbors()
	vd.circum = make([][]circle, len(sites))
	for _, tv := range d.Triangles() {
		a, b, c := sites[tv[0]], sites[tv[1]], sites[tv[2]]
		cc, ok := geom.Circumcenter(a, b, c)
		if !ok {
			continue
		}
		circ := circle{c: cc, r: cc.Dist(a)}
		for _, v := range tv {
			vd.circum[v] = append(vd.circum[v], circ)
		}
	}
	return vd
}

// NumSites returns the number of sites.
func (vd *Diagram) NumSites() int { return vd.d.NumSites() }

// Triangles returns the Delaunay triangles (site index triples) of the
// diagram's dual triangulation.
func (vd *Diagram) Triangles() [][3]int { return vd.d.Triangles() }

// Site returns site i.
func (vd *Diagram) Site(i int) geom.Point { return vd.d.Site(i) }

// Neighbors returns the Delaunay neighbours of site i (do not modify).
func (vd *Diagram) Neighbors(i int) []int { return vd.neighbors[i] }

// IsOpen reports whether site i's Voronoi region is unbounded (the site is
// on the convex hull of the triangulation). Open regions are never safe.
func (vd *Diagram) IsOpen(i int) bool { return vd.onHull[i] }

// Region returns site i's Voronoi region clipped to the given rectangle,
// computed by clipping the rectangle against the bisector half-plane of
// every Delaunay neighbour. Because non-neighbour constraints are never
// binding on the true region, the result is exactly region(i) ∩ clip.
func (vd *Diagram) Region(i int, clip geom.Rect) geom.Polygon {
	if len(vd.neighbors[i]) == 0 && vd.NumSites() > 1 {
		// Degenerate configuration (e.g. all sites collinear): the dual
		// triangulation carries no adjacency, so fall back to clipping
		// against every other site.
		return BruteRegion(vd.d.sites, i, clip)
	}
	poly := geom.RectPoly(clip).Vertices
	s := vd.d.Site(i)
	for _, j := range vd.neighbors[i] {
		poly = clipHalfPlane(poly, s, vd.d.Site(j))
		if len(poly) == 0 {
			break
		}
	}
	return geom.Polygon{Vertices: poly}
}

// clipHalfPlane clips polygon poly to the half-plane of points at least as
// close to s as to q (Sutherland–Hodgman against the bisector).
func clipHalfPlane(poly []geom.Point, s, q geom.Point) []geom.Point {
	if len(poly) == 0 {
		return poly
	}
	// Inside test: (q-s)·x <= (q-s)·(s+q)/2.
	n := q.Sub(s)
	bound := n.Dot(geom.Midpoint(s, q))
	inside := func(p geom.Point) bool { return n.Dot(p) <= bound }
	cross := func(a, b geom.Point) geom.Point {
		da := n.Dot(a) - bound
		db := n.Dot(b) - bound
		t := da / (da - db)
		return geom.Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
	}
	out := make([]geom.Point, 0, len(poly)+2)
	for i := 0; i < len(poly); i++ {
		a := poly[i]
		b := poly[(i+1)%len(poly)]
		ain, bin := inside(a), inside(b)
		switch {
		case ain && bin:
			out = append(out, b)
		case ain && !bin:
			out = append(out, cross(a, b))
		case !ain && bin:
			out = append(out, cross(a, b), b)
		}
	}
	return out
}

// Safe reports whether site i's region is safe for partition boundary
// part: the region is closed and its dangerous zone — the union of the
// circumcircles of the site's incident Delaunay triangles — lies entirely
// inside part (paper Theorem 1 / Corollary 1). Safe regions can never be
// changed by sites outside the partition, so they are flushed as final.
func (vd *Diagram) Safe(i int, part geom.Rect) bool {
	if vd.onHull[i] || len(vd.circum[i]) == 0 {
		return false
	}
	for _, c := range vd.circum[i] {
		if c.c.X-c.r < part.MinX || c.c.X+c.r > part.MaxX ||
			c.c.Y-c.r < part.MinY || c.c.Y+c.r > part.MaxY {
			return false
		}
	}
	return true
}

// SafeSites classifies every site by applying the pruning rule directly.
func (vd *Diagram) SafeSites(part geom.Rect) []bool {
	out := make([]bool, vd.NumSites())
	for i := range out {
		out[i] = vd.Safe(i, part)
	}
	return out
}

// SafeSitesFrontier classifies sites with the optimization of paper §5.2:
// all non-safe regions form a contiguous block touching the partition
// boundary, so a BFS that starts from boundary-overlapping regions and
// expands only through non-safe regions visits every non-safe region; the
// rule is evaluated only on visited regions. RuleApplications reports how
// many regions had the (expensive) dangerous-zone test evaluated.
func (vd *Diagram) SafeSitesFrontier(part geom.Rect) (safe []bool, ruleApplications int) {
	n := vd.NumSites()
	safe = make([]bool, n)
	for i := range safe {
		safe[i] = true
	}
	visited := make([]bool, n)
	var queue []int
	// Seed: open regions and regions whose dangerous zone could not be
	// evaluated; all regions overlapping the boundary are open or have a
	// circumcircle crossing it, and open regions are always on the hull.
	for i := 0; i < n; i++ {
		if vd.onHull[i] || len(vd.circum[i]) == 0 {
			safe[i] = false
			visited[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, j := range vd.neighbors[i] {
			if visited[j] {
				continue
			}
			visited[j] = true
			ruleApplications++
			if vd.Safe(j, part) {
				safe[j] = true
				continue
			}
			safe[j] = false
			queue = append(queue, j)
		}
	}
	return safe, ruleApplications
}

// BruteRegion computes site i's region clipped to clip by intersecting
// half-planes against every other site — the O(n) oracle used by the
// differential tests.
func BruteRegion(sites []geom.Point, i int, clip geom.Rect) geom.Polygon {
	poly := geom.RectPoly(clip).Vertices
	s := sites[i]
	for j, q := range sites {
		if j == i || q.Equal(s) {
			continue
		}
		poly = clipHalfPlane(poly, s, q)
		if len(poly) == 0 {
			break
		}
	}
	return geom.Polygon{Vertices: poly}
}

// NearestSite returns the index of the site nearest to p (linear scan
// oracle for tests).
func NearestSite(sites []geom.Point, p geom.Point) int {
	best, bestD := -1, math.Inf(1)
	for i, s := range sites {
		if d := s.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
