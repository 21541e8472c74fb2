package geom

import (
	"math"
	"slices"
)

// Region is a plane region bounded by one or more rings interpreted with
// the even-odd rule. A simple polygon is a single-ring region; the union of
// overlapping polygons may produce multiple outer rings and holes. Region
// is the record type that flows through the distributed union pipeline: the
// local union step emits regions, and the merge step unions regions again.
type Region struct {
	Rings []Polygon
}

// RegionOf wraps a single polygon as a region.
func RegionOf(pg Polygon) Region { return Region{Rings: []Polygon{pg}} }

// Bounds returns the MBR of all rings.
func (rg Region) Bounds() Rect {
	b := EmptyRect()
	for _, ring := range rg.Rings {
		b = b.Union(ring.Bounds())
	}
	return b
}

// Edges returns the edges of all rings.
func (rg Region) Edges() []Segment {
	var out []Segment
	for _, ring := range rg.Rings {
		out = append(out, ring.Edges()...)
	}
	return out
}

// VertexCount returns the total number of vertices across rings. It stands
// in for record size in pruning statistics.
func (rg Region) VertexCount() int {
	n := 0
	for _, ring := range rg.Rings {
		n += len(ring.Vertices)
	}
	return n
}

// ContainsPoint reports whether p is inside the region by the even-odd
// rule (boundary points count as inside).
func (rg Region) ContainsPoint(p Point) bool {
	crossings := 0
	for _, ring := range rg.Rings {
		v := ring.Vertices
		if len(v) < 3 {
			continue
		}
		for i, j := 0, len(v)-1; i < len(v); j, i = i, i+1 {
			a, b := v[i], v[j]
			if Seg(a, b).ContainsPoint(p) {
				return true
			}
			if (a.Y > p.Y) != (b.Y > p.Y) {
				x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
				if p.X < x {
					crossings++
				}
			}
		}
	}
	return crossings%2 == 1
}

// UnionRegions computes the union of regions: the boundary of the set of
// points covered by at least one region. It returns the result both as a
// stitched multi-ring region and as the canonical boundary segment set.
//
// The algorithm is a segment arrangement (DESIGN.md substitution for the
// JTS buffer trick): split every edge at its intersections with edges of
// other regions, then keep exactly the sub-segments that have covered space
// on one side and free space on the other.
func UnionRegions(regions []Region) (Region, []Segment) {
	segs := UnionBoundarySegments(regions)
	return StitchRings(segs), segs
}

// UnionPolygons is a convenience wrapper over UnionRegions for plain
// polygons.
func UnionPolygons(polys []Polygon) (Region, []Segment) {
	regions := make([]Region, len(polys))
	for i, pg := range polys {
		regions[i] = RegionOf(pg)
	}
	return UnionRegions(regions)
}

// ownedEdge tags an edge with the region it came from.
type ownedEdge struct {
	seg   Segment
	owner int
	cuts  []Point
}

// UnionBoundarySegments returns the boundary of the union of the regions
// as a deduplicated, canonically-oriented segment set sorted in a
// deterministic order.
func UnionBoundarySegments(regions []Region) []Segment {
	var edges []ownedEdge
	bounds := EmptyRect()
	for i, rg := range regions {
		for _, e := range rg.Edges() {
			edges = append(edges, ownedEdge{seg: e, owner: i})
		}
		bounds = bounds.Union(rg.Bounds())
	}
	if len(edges) == 0 {
		return nil
	}

	eps := sideEps(bounds)
	grid := newEdgeGrid(bounds, len(edges))
	for i := range edges {
		grid.insert(i, edges[i].seg.Bounds())
	}

	// Split edges at pairwise intersections (edges of the same region are
	// assumed non-crossing: rings of one region come from a previous valid
	// union or a simple polygon).
	grid.forEachPair(func(i, j int) {
		if edges[i].owner == edges[j].owner {
			return
		}
		pts := IntersectSegments(edges[i].seg, edges[j].seg)
		for _, p := range pts {
			edges[i].cuts = append(edges[i].cuts, p)
			edges[j].cuts = append(edges[j].cuts, p)
		}
	})

	// Index regions for coverage queries.
	rgrid := newEdgeGrid(bounds, len(regions))
	for i := range regions {
		rgrid.insert(i, regions[i].Bounds())
	}

	covered := func(p Point) bool {
		hit := false
		rgrid.forEachAt(p, func(i int) bool {
			if regions[i].ContainsPoint(p) {
				hit = true
				return false
			}
			return true
		})
		return hit
	}

	// Sub-segments shorter than this carry no boundary information; they
	// arise from intersection points computed twice with 1-ULP jitter and
	// would otherwise poison downstream vertex matching.
	minLen := eps * 1e-2

	var out []Segment
	for _, e := range edges {
		for _, sub := range e.seg.SplitAt(e.cuts) {
			if sub.Length() < minLen {
				continue
			}
			m := sub.Midpoint()
			// Unit normal of the sub-segment.
			d := sub.B.Sub(sub.A)
			n := Point{-d.Y, d.X}
			ln := n.Norm()
			if ln == 0 {
				continue
			}
			n = n.Scale(eps / ln)
			left := covered(m.Add(n))
			right := covered(m.Sub(n))
			if left != right {
				out = append(out, sub.Canonical())
			}
		}
	}
	return dedupeSegments(out)
}

// sideEps picks the offset used for side-of-boundary coverage probes,
// proportional to the data extent.
func sideEps(b Rect) float64 {
	diag := math.Hypot(b.Width(), b.Height())
	if diag == 0 || math.IsInf(diag, 0) {
		return 1e-9
	}
	return math.Max(1e-9, diag*1e-8)
}

// CanonicalizeSegments returns a canonically-oriented, sorted, deduplicated
// copy of the segments — the normal form union results are compared in.
func CanonicalizeSegments(segs []Segment) []Segment {
	return dedupeSegments(append([]Segment(nil), segs...))
}

// pointSnapper maps points that coincide up to a tolerance onto a single
// representative, so that coordinates reconstructed through different
// intersection chains (differing in the last float bits) compare equal.
type pointSnapper struct {
	q    float64
	reps map[[2]int64][]Point
}

func newPointSnapper(bounds Rect) *pointSnapper {
	q := math.Max(1e-15, math.Hypot(bounds.Width(), bounds.Height())*1e-11)
	return &pointSnapper{q: q, reps: make(map[[2]int64][]Point)}
}

// snap returns the canonical representative for p, registering p as a new
// representative when no existing one lies within the tolerance.
func (ps *pointSnapper) snap(p Point) Point {
	cx := int64(math.Floor(p.X / ps.q))
	cy := int64(math.Floor(p.Y / ps.q))
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, r := range ps.reps[[2]int64{cx + dx, cy + dy}] {
				if math.Abs(r.X-p.X) <= ps.q && math.Abs(r.Y-p.Y) <= ps.q {
					return r
				}
			}
		}
	}
	ps.reps[[2]int64{cx, cy}] = append(ps.reps[[2]int64{cx, cy}], p)
	return p
}

// dedupeSegments snaps endpoints, canonicalizes, sorts and removes
// duplicate segments. Snapping makes near-identical copies — the same
// boundary piece reconstructed through different intersection chains, or
// replicated records under disjoint partitioning — exactly equal, so the
// later ring stitching connects them reliably.
func dedupeSegments(segs []Segment) []Segment {
	if len(segs) == 0 {
		return segs
	}
	bounds := EmptyRect()
	for _, s := range segs {
		bounds = bounds.Union(s.Bounds())
	}
	ps := newPointSnapper(bounds)
	seen := make(map[Segment]bool, len(segs))
	out := segs[:0]
	for i := range segs {
		s := Segment{A: ps.snap(segs[i].A), B: ps.snap(segs[i].B)}.Canonical()
		if s.IsDegenerate() || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	slices.SortFunc(out, compareSegs)
	return out
}

// compareSegs orders segments by A, then B, with Point.Compare.
func compareSegs(a, b Segment) int {
	if !a.A.Equal(b.A) {
		return a.A.Compare(b.A)
	}
	return a.B.Compare(b.B)
}

// StitchRings assembles boundary segments into closed rings. Every vertex
// of a valid union boundary has even degree, so a walk that always leaves a
// vertex by an unused edge terminates with all edges consumed. Chains that
// fail to close (numerically degenerate inputs) are emitted as open rings
// so no boundary is silently lost.
func StitchRings(segs []Segment) Region {
	// Endpoints are snapped to cluster representatives so that vertices
	// computed through different intersection pairs (and thus differing in
	// the last float bits) still connect.
	bounds := EmptyRect()
	for _, s := range segs {
		bounds = bounds.Union(s.Bounds())
	}
	ps := newPointSnapper(bounds)
	snapped := make([]Segment, 0, len(segs))
	for _, s := range segs {
		sn := Segment{A: ps.snap(s.A), B: ps.snap(s.B)}
		if !sn.IsDegenerate() {
			snapped = append(snapped, sn)
		}
	}
	segs = snapped
	type vkey struct{ x, y float64 }
	adj := make(map[vkey][]int, len(segs))
	used := make([]bool, len(segs))
	key := func(p Point) vkey { return vkey{p.X, p.Y} }
	for i, s := range segs {
		adj[key(s.A)] = append(adj[key(s.A)], i)
		adj[key(s.B)] = append(adj[key(s.B)], i)
	}

	var rings []Polygon
	for start := range segs {
		if used[start] {
			continue
		}
		used[start] = true
		ring := []Point{segs[start].A, segs[start].B}
		cur := segs[start].B
		first := key(segs[start].A)
		for key(cur) != first {
			found := -1
			for _, ei := range adj[key(cur)] {
				if !used[ei] {
					found = ei
					break
				}
			}
			if found == -1 {
				break // open chain; keep what we have
			}
			used[found] = true
			next := segs[found].B
			if key(segs[found].A) != key(cur) {
				next = segs[found].A
			}
			cur = next
			if key(cur) != first {
				ring = append(ring, cur)
			}
		}
		rings = append(rings, Polygon{Vertices: ring})
	}
	return Region{Rings: rings}
}

// ClipBoundaryToRect clips boundary segments to a rectangle, the pruning
// step of the enhanced union algorithm (paper §4.4): every part of the
// local result outside the partition boundary is discarded, because it is
// either interior to the global union or regenerated exactly by the
// neighbouring partition.
func ClipBoundaryToRect(segs []Segment, r Rect) []Segment {
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		if c, ok := s.ClipToRect(r); ok {
			out = append(out, c.Canonical())
		}
	}
	return dedupeSegments(out)
}

// TotalLength returns the summed length of the segments; union variants are
// compared by boundary length plus point-on-boundary sampling.
func TotalLength(segs []Segment) float64 {
	sum := 0.0
	for _, s := range segs {
		sum += s.Length()
	}
	return sum
}

// OnAnySegment reports whether p lies on at least one of the segments.
func OnAnySegment(p Point, segs []Segment) bool {
	for _, s := range segs {
		if s.ContainsPoint(p) {
			return true
		}
	}
	return false
}
