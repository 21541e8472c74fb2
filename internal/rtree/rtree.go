// Package rtree implements the local (per-partition) index of
// SpatialHadoop's two-level indexing scheme: an R-tree bulk-loaded with the
// Sort-Tile-Recursive algorithm. Local indexes organize the records inside
// one partition and serve range and nearest-neighbour queries without
// scanning every record.
package rtree

import (
	"container/heap"
	"math"
	"sort"

	"spatialhadoop/internal/geom"
)

// Entry is one indexed item: an MBR plus the caller's record identifier.
type Entry struct {
	MBR geom.Rect
	ID  int
}

// node is an R-tree node; leaves hold entries, internal nodes hold children.
type node struct {
	mbr      geom.Rect
	children []*node
	entries  []Entry
	leaf     bool
}

// Tree is an immutable STR-packed R-tree.
type Tree struct {
	root *node
	size int
	fan  int
}

// DefaultFanout is the node capacity used when none is given.
const DefaultFanout = 16

// Bulk builds a tree over the entries with the given fanout (node
// capacity). The input slice is not retained.
func Bulk(entries []Entry, fanout int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	t := &Tree{size: len(entries), fan: fanout}
	if len(entries) == 0 {
		return t
	}
	// STR packing: sort by center x, slice, sort slices by center y, pack.
	es := make([]Entry, len(entries))
	copy(es, entries)
	leaves := packLeaves(es, fanout)
	t.root = packUp(leaves, fanout)
	return t
}

// BulkPoints builds a tree over points, using their slice index as ID.
func BulkPoints(pts []geom.Point, fanout int) *Tree {
	es := make([]Entry, len(pts))
	for i, p := range pts {
		es[i] = Entry{MBR: geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, ID: i}
	}
	return Bulk(es, fanout)
}

func packLeaves(es []Entry, fanout int) []*node {
	sort.Slice(es, func(i, j int) bool { return es[i].MBR.Center().X < es[j].MBR.Center().X })
	nLeaves := (len(es) + fanout - 1) / fanout
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * fanout
	var leaves []*node
	for s := 0; s*sliceSize < len(es); s++ {
		lo := s * sliceSize
		hi := lo + sliceSize
		if hi > len(es) {
			hi = len(es)
		}
		slice := es[lo:hi]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].MBR.Center().Y < slice[j].MBR.Center().Y
		})
		for c := 0; c*fanout < len(slice); c++ {
			clo := c * fanout
			chi := clo + fanout
			if chi > len(slice) {
				chi = len(slice)
			}
			n := &node{leaf: true, entries: append([]Entry(nil), slice[clo:chi]...)}
			n.mbr = geom.EmptyRect()
			for _, e := range n.entries {
				n.mbr = cover(n.mbr, e.MBR)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

// cover grows a node MBR (seeded with geom.EmptyRect) over one member's
// MBR. A NaN coordinate fails every comparison and is skipped, where
// Rect.Union's math.Min/Max would carry it up to the root and hide the
// whole tree from Search: an entry with a NaN coordinate intersects no
// query anyway, so leaving it out of its ancestors loses no match and
// keeps its siblings reachable.
func cover(r, s geom.Rect) geom.Rect {
	if s.MinX < r.MinX {
		r.MinX = s.MinX
	}
	if s.MinY < r.MinY {
		r.MinY = s.MinY
	}
	if s.MaxX > r.MaxX {
		r.MaxX = s.MaxX
	}
	if s.MaxY > r.MaxY {
		r.MaxY = s.MaxY
	}
	return r
}

func packUp(nodes []*node, fanout int) *node {
	for len(nodes) > 1 {
		sort.Slice(nodes, func(i, j int) bool {
			return nodes[i].mbr.Center().X < nodes[j].mbr.Center().X
		})
		var next []*node
		for c := 0; c*fanout < len(nodes); c++ {
			lo := c * fanout
			hi := lo + fanout
			if hi > len(nodes) {
				hi = len(nodes)
			}
			n := &node{children: append([]*node(nil), nodes[lo:hi]...)}
			n.mbr = geom.EmptyRect()
			for _, ch := range n.children {
				n.mbr = cover(n.mbr, ch.mbr)
			}
			next = append(next, n)
		}
		nodes = next
	}
	return nodes[0]
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Bounds returns the MBR of all entries.
func (t *Tree) Bounds() geom.Rect {
	if t.root == nil {
		return geom.EmptyRect()
	}
	return t.root.mbr
}

// Search appends to dst the IDs of all entries whose MBR intersects query
// and returns the extended slice.
func (t *Tree) Search(query geom.Rect, dst []int) []int {
	if t.root == nil {
		return dst
	}
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.mbr.Intersects(query) {
			continue
		}
		if n.leaf {
			for _, e := range n.entries {
				if e.MBR.Intersects(query) {
					dst = append(dst, e.ID)
				}
			}
			continue
		}
		stack = append(stack, n.children...)
	}
	return dst
}

// Visit calls fn for every entry whose MBR intersects query, stopping if
// fn returns false.
func (t *Tree) Visit(query geom.Rect, fn func(Entry) bool) {
	if t.root == nil {
		return
	}
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.mbr.Intersects(query) {
			continue
		}
		if n.leaf {
			for _, e := range n.entries {
				if e.MBR.Intersects(query) && !fn(e) {
					return
				}
			}
			continue
		}
		stack = append(stack, n.children...)
	}
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	Entry Entry
	Dist  float64
}

// nnItem is a best-first search queue element.
type nnItem struct {
	n    *node
	e    Entry
	leaf bool
	dist float64
}

type nnQueue []nnItem

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnItem)) }
func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Nearest returns the k entries nearest to p in increasing distance order
// (fewer if the tree holds fewer), using best-first search.
func (t *Tree) Nearest(p geom.Point, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &nnQueue{{n: t.root, dist: t.root.mbr.MinDistPoint(p)}}
	heap.Init(q)
	var out []Neighbor
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(q).(nnItem)
		if it.leaf {
			out = append(out, Neighbor{Entry: it.e, Dist: it.dist})
			continue
		}
		if it.n.leaf {
			for _, e := range it.n.entries {
				heap.Push(q, nnItem{e: e, leaf: true, dist: e.MBR.MinDistPoint(p)})
			}
			continue
		}
		for _, ch := range it.n.children {
			heap.Push(q, nnItem{n: ch, dist: ch.mbr.MinDistPoint(p)})
		}
	}
	return out
}

// NearestWithTies returns the k nearest entries plus every further entry
// whose distance equals the k-th distance exactly. Callers that must pick
// a deterministic top-k independent of tree shape (the kNN map phase and
// the in-memory serving engine feed the same records through differently
// bulk-loaded trees) take the tie-complete candidate set and break ties
// themselves; plain Nearest would resolve ties by heap order, which
// depends on how entries were packed into leaves.
func (t *Tree) NearestWithTies(p geom.Point, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &nnQueue{{n: t.root, dist: t.root.mbr.MinDistPoint(p)}}
	heap.Init(q)
	var out []Neighbor
	for q.Len() > 0 {
		// Pop order is nondecreasing in dist, so once k results are in
		// hand anything strictly beyond the k-th distance ends the search;
		// items at exactly that distance are still expanded and kept.
		if len(out) >= k && (*q)[0].dist > out[len(out)-1].Dist {
			break
		}
		it := heap.Pop(q).(nnItem)
		if it.leaf {
			if len(out) >= k && it.dist > out[len(out)-1].Dist {
				break
			}
			out = append(out, Neighbor{Entry: it.e, Dist: it.dist})
			continue
		}
		if it.n.leaf {
			for _, e := range it.n.entries {
				heap.Push(q, nnItem{e: e, leaf: true, dist: e.MBR.MinDistPoint(p)})
			}
			continue
		}
		for _, ch := range it.n.children {
			heap.Push(q, nnItem{n: ch, dist: ch.mbr.MinDistPoint(p)})
		}
	}
	return out
}
