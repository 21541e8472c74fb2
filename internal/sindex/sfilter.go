package sindex

import (
	"sync"

	"spatialhadoop/internal/geom"
)

// SFilter is a spatial bitmap filter (the "sFilter" of LocationSpark): one
// compact occupancy bitmap per partition over a fixed res×res grid of the
// indexed space. A probe can return a false positive but never a false
// negative: build and probe discretize coordinates with the same floor
// arithmetic, so any cell holding a record sets every bit a query covering
// that record probes.
//
// A partition's bitmap starts conservative — the grid cells covered by the
// partition's minimal content MBR, available from the global index alone —
// and Refine makes it the exact occupancy of the decoded points.
//
// No query path consults it: a query is pruned by its partitions' covers
// alone. On clustered corpora of 100 000 and 400 000 points the refined
// bitmaps skipped at most 1.6 % of the partitions the covers kept, and
// the local search took as long with them as without. NewSFilter, Refine
// and MayIntersect stay because the benchmark harness's micro-levels
// still time a probe.
type SFilter struct {
	space  geom.Rect
	res    int
	cw, ch float64

	mu    sync.RWMutex
	parts map[string]*sfilterBits
}

// sfilterBits is one partition's occupancy bitmap.
type sfilterBits struct {
	words []uint64
}

// DefaultSFilterRes is the per-axis bitmap resolution: 64×64 bits = 512
// bytes per partition.
const DefaultSFilterRes = 64

// NewSFilter builds the filter for a global index: every cell with content
// gets a conservative bitmap covering its content MBR. res <= 0 selects
// DefaultSFilterRes.
func NewSFilter(gi *GlobalIndex, res int) *SFilter {
	if res <= 0 {
		res = DefaultSFilterRes
	}
	f := &SFilter{
		space: gi.Space,
		res:   res,
		cw:    gi.Space.Width() / float64(res),
		ch:    gi.Space.Height() / float64(res),
		parts: make(map[string]*sfilterBits, len(gi.Cells)),
	}
	for _, c := range gi.Cells {
		if c.Content.IsEmpty() {
			continue
		}
		b := &sfilterBits{words: make([]uint64, (res*res+63)/64)}
		f.setRect(b, c.Content)
		f.parts[c.Key()] = b
	}
	return f
}

// col and row clamp a coordinate into the grid. The same floor expression
// serves build and probe, which is what makes pruning sound: floor of a
// monotone function is monotone, so a point's bit always lies inside the
// bit range of any rectangle containing the point.
func (f *SFilter) col(x float64) int { return clampIdx((x-f.space.MinX)/f.cw, f.res) }
func (f *SFilter) row(y float64) int { return clampIdx((y-f.space.MinY)/f.ch, f.res) }

func clampIdx(v float64, res int) int {
	i := int(v)
	if i < 0 {
		return 0
	}
	if i >= res {
		return res - 1
	}
	return i
}

func (b *sfilterBits) setBit(i int) { b.words[i/64] |= uint64(1) << (i % 64) }

func (b *sfilterBits) bit(i int) bool { return b.words[i/64]&(uint64(1)<<(i%64)) != 0 }

// setRect sets every bit in the grid range covered by r.
func (f *SFilter) setRect(b *sfilterBits, r geom.Rect) {
	c0, c1 := f.col(r.MinX), f.col(r.MaxX)
	r0, r1 := f.row(r.MinY), f.row(r.MaxY)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b.setBit(row*f.res + col)
		}
	}
}

// Refine replaces a partition's conservative bitmap with the exact
// occupancy of its decoded points.
func (f *SFilter) Refine(partition string, pts []geom.Point) {
	b := &sfilterBits{words: make([]uint64, (f.res*f.res+63)/64)}
	for _, p := range pts {
		b.setBit(f.row(p.Y)*f.res + f.col(p.X))
	}
	f.mu.Lock()
	f.parts[partition] = b
	f.mu.Unlock()
}

// MayIntersect reports whether the partition may hold a record inside q.
// False means certainly empty (sound to skip the partition); true means
// the partition must be searched. Unknown partitions answer true.
func (f *SFilter) MayIntersect(partition string, q geom.Rect) bool {
	f.mu.RLock()
	b, ok := f.parts[partition]
	f.mu.RUnlock()
	if !ok {
		return true
	}
	if !q.Intersects(f.space) {
		// Records live strictly inside the (buffered) index space.
		return false
	}
	c0, c1 := f.col(q.MinX), f.col(q.MaxX)
	r0, r1 := f.row(q.MinY), f.row(q.MaxY)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			if b.bit(row*f.res + col) {
				return true
			}
		}
	}
	return false
}
