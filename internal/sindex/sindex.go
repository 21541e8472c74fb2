// Package sindex implements SpatialHadoop's global index layer: the
// spatial partitioning techniques of paper Table 1 (uniform grid, STR,
// STR+, Quad-tree, K-d tree, Z-curve, Hilbert curve), the partition
// metadata (cells with boundaries) and record-to-cell assignment with
// replication for disjoint techniques. The loader's index travels with
// the file it built (dfs.File.Index) as a value; it is never serialized.
package sindex

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spatialhadoop/internal/geom"
)

// Technique identifies a spatial partitioning technique.
type Technique int

// The partitioning techniques of paper Table 1.
const (
	Grid Technique = iota
	STR
	STRPlus
	QuadTree
	KDTree
	ZCurve
	Hilbert
)

// Info describes a technique's static properties (paper Table 1).
type Info struct {
	Name string
	// Disjoint reports whether partitions never overlap (records crossing
	// boundaries are replicated instead).
	Disjoint bool
	// HandlesSkew reports whether the technique adapts to skewed data.
	HandlesSkew bool
}

// Table1 is the catalogue of supported techniques and their properties,
// mirroring paper Table 1: all techniques handle skew except the uniform
// grid, and grid / STR+ / Quad-tree / K-d tree produce disjoint partitions.
var Table1 = map[Technique]Info{
	Grid:     {Name: "grid", Disjoint: true, HandlesSkew: false},
	STR:      {Name: "str", Disjoint: false, HandlesSkew: true},
	STRPlus:  {Name: "str+", Disjoint: true, HandlesSkew: true},
	QuadTree: {Name: "quadtree", Disjoint: true, HandlesSkew: true},
	KDTree:   {Name: "kdtree", Disjoint: true, HandlesSkew: true},
	ZCurve:   {Name: "zcurve", Disjoint: false, HandlesSkew: true},
	Hilbert:  {Name: "hilbert", Disjoint: false, HandlesSkew: true},
}

// ParseTechnique maps a name to a Technique.
func ParseTechnique(name string) (Technique, error) {
	for t, info := range Table1 {
		if info.Name == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("sindex: unknown partitioning technique %q", name)
}

// String implements fmt.Stringer.
func (t Technique) String() string {
	if info, ok := Table1[t]; ok {
		return info.Name
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Disjoint reports whether the technique produces disjoint partitions.
func (t Technique) Disjoint() bool { return Table1[t].Disjoint }

// Cell is one partition of the global index.
type Cell struct {
	// ID is the cell's ordinal within the index.
	ID int
	// Boundary is the cell's partition rectangle. For disjoint techniques
	// the boundaries tile the space; for overlapping techniques the
	// boundary is the MBR of the assigned contents and may overlap other
	// cells.
	Boundary geom.Rect
	// Content is the minimal MBR of the records actually stored in the
	// cell, set by the loader after assignment. Dominance-based filters
	// (skyline, convex hull, farthest pair) rely on content MBRs being
	// minimal: every edge of a minimal MBR carries at least one record.
	Content geom.Rect
	// CurveLo/CurveHi delimit the cell's space-filling-curve range for
	// curve-based techniques (inclusive lo, exclusive hi).
	CurveLo, CurveHi uint64
}

// Key returns the partition key used to tag this cell's blocks.
func (c Cell) Key() string { return "c" + strconv.Itoa(c.ID) }

// GlobalIndex is the partition-level (global) half of SpatialHadoop's
// two-level index. It is consulted by filter functions for pruning and by
// the loader for record assignment; it never touches individual records.
type GlobalIndex struct {
	Technique Technique
	// Space is the indexed data space (used by curve techniques and grid).
	Space geom.Rect
	Cells []Cell
	// curveRes is the per-axis resolution of the space-filling curves.
	curveRes uint32
}

// Disjoint reports whether the index's partitions are disjoint.
func (gi *GlobalIndex) Disjoint() bool { return gi.Technique.Disjoint() }

// CellByKey returns the cell with the given partition key.
func (gi *GlobalIndex) CellByKey(key string) (Cell, bool) {
	id, err := strconv.Atoi(strings.TrimPrefix(key, "c"))
	if err != nil || id < 0 || id >= len(gi.Cells) {
		return Cell{}, false
	}
	return gi.Cells[id], true
}

// AssignPoint returns the cell a point record belongs to. Disjoint
// techniques route by containment; overlapping techniques route by curve
// position or least-enlargement.
func (gi *GlobalIndex) AssignPoint(p geom.Point) int {
	switch gi.Technique {
	case ZCurve, Hilbert:
		v := gi.curveValue(p)
		return gi.cellForCurve(v)
	case STR:
		return gi.leastEnlargement(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	default:
		return gi.cellContaining(p)
	}
}

// AssignRect returns the cells a shape with MBR r belongs to. For disjoint
// techniques the shape is replicated to every overlapping cell (paper
// §2.3); for overlapping techniques it goes to exactly one cell.
func (gi *GlobalIndex) AssignRect(r geom.Rect) []int {
	switch gi.Technique {
	case ZCurve, Hilbert:
		return []int{gi.cellForCurve(gi.curveValue(r.Center()))}
	case STR:
		return []int{gi.leastEnlargement(r)}
	default:
		var out []int
		for i := range gi.Cells {
			if gi.Cells[i].Boundary.Intersects(r) {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			out = append(out, gi.cellContaining(r.Center()))
		}
		return out
	}
}

// cellContaining returns the disjoint cell containing p. Points on shared
// boundaries belong to the lowest-ID containing cell, so assignment is
// total and unambiguous even at the space's maximum edges.
func (gi *GlobalIndex) cellContaining(p geom.Point) int {
	fallback := -1
	for i := range gi.Cells {
		b := gi.Cells[i].Boundary
		if b.ContainsPointExclusive(p) {
			return i
		}
		if fallback < 0 && b.ContainsPoint(p) {
			fallback = i
		}
	}
	if fallback >= 0 {
		return fallback
	}
	// Outside the indexed space entirely: nearest cell.
	best, bestD := 0, geom.WorldRect().Width()
	for i := range gi.Cells {
		if d := gi.Cells[i].Boundary.MinDistPoint(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// leastEnlargement returns the cell whose boundary grows least to admit r
// (R-tree ChooseLeaf, used for the overlapping STR technique).
func (gi *GlobalIndex) leastEnlargement(r geom.Rect) int {
	best := 0
	bestGrow := geom.WorldRect().Width()
	bestArea := bestGrow
	for i := range gi.Cells {
		b := gi.Cells[i].Boundary
		grow := b.Union(r).Area() - b.Area()
		if grow < bestGrow || (grow == bestGrow && b.Area() < bestArea) {
			best, bestGrow, bestArea = i, grow, b.Area()
		}
	}
	return best
}

// cellForCurve returns the cell whose curve range contains v.
func (gi *GlobalIndex) cellForCurve(v uint64) int {
	n := len(gi.Cells)
	idx := sort.Search(n, func(i int) bool { return gi.Cells[i].CurveHi > v })
	if idx >= n {
		return n - 1
	}
	return idx
}

// curveValue maps a point to its space-filling-curve position.
func (gi *GlobalIndex) curveValue(p geom.Point) uint64 {
	x, y := gi.normalize(p)
	if gi.Technique == Hilbert {
		return hilbertD2XY(gi.curveRes, x, y)
	}
	return zInterleave(x, y)
}

// normalize maps p into integer grid coordinates of the curve resolution.
func (gi *GlobalIndex) normalize(p geom.Point) (uint32, uint32) {
	res := gi.curveRes
	w := gi.Space.Width()
	h := gi.Space.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	fx := (p.X - gi.Space.MinX) / w
	fy := (p.Y - gi.Space.MinY) / h
	x := uint32(clampf(fx) * float64(res-1))
	y := uint32(clampf(fy) * float64(res-1))
	return x, y
}

func clampf(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
