package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// The indexed loaders run in data-parallel passes over fixed-size chunks
// of the input — measure, assign, scatter — and then sort each cell on its
// own. Every pass writes only its own chunk's or cell's share and the
// shares are combined in chunk (or cell) order, so the file is the same
// whatever GOMAXPROCS is.

// loadChunk is the records per chunk, and maxLoadChunks bounds the chunk
// count, so the per-chunk per-cell counts stay small for large inputs.
const (
	loadChunk     = 4096
	maxLoadChunks = 256
)

// chunking returns the chunk length for n records — loadChunk, or larger
// once that would make more than maxLoadChunks chunks — and the count.
func chunking(n int) (size, count int) {
	size = max(loadChunk, (n+maxLoadChunks-1)/maxLoadChunks)
	return size, (n + size - 1) / size
}

// forChunks calls do(k, lo, hi) for each chunk k, records [lo, hi), of
// n records, in parallel.
func forChunks(n int, do func(k, lo, hi int)) {
	size, count := chunking(n)
	parallel(count, func(_ *struct{}, k int) { do(k, k*size, min(n, (k+1)*size)) })
}

// measureChunks calls measure(lo, hi) on every chunk of n records in
// parallel, each returning its records' text bytes (a newline each) and
// MBR, and returns their sum and union. The union is the serial fold's:
// min and max take the same value in any order, NaN and -0 included.
func measureChunks(n int, measure func(lo, hi int) (int64, geom.Rect)) (total int64, mbr geom.Rect) {
	_, count := chunking(n)
	totals := make([]int64, count)
	mbrs := make([]geom.Rect, count)
	forChunks(n, func(k, lo, hi int) { totals[k], mbrs[k] = measure(lo, hi) })
	mbr = geom.EmptyRect()
	for k, t := range totals {
		total += t
		mbr = mbr.Union(mbrs[k])
	}
	return total, mbr
}

// measurePoints measures each point's text length, geomio.PointLen(p) —
// len(geomio.EncodePoint(p)) without spelling it — which is what
// WritePoints counts a point as, and in the same pass the points' total
// text bytes and MBR.
func measurePoints(pts []geom.Point) (lens []uint8, total int64, mbr geom.Rect) {
	lens = make([]uint8, len(pts))
	total, mbr = measureChunks(len(pts), func(lo, hi int) (int64, geom.Rect) {
		var t int64
		r := geom.EmptyRect()
		for i := lo; i < hi; i++ {
			n := geomio.PointLen(pts[i])
			lens[i] = uint8(n)
			t += int64(n) + 1
			r = r.ExpandPoint(pts[i])
		}
		return t, r
	})
	return lens, total, mbr
}

// groupByCell lays records [0, n) out cell by cell in one flat array:
// assign(i, dst) appends to dst the cells record i goes to — one for a
// point, every overlapping cell for a region a disjoint technique
// replicates. byCell[c], a subslice of the flat array, holds cell c's
// records in input order, and starts[c] is where it starts in the flat
// array (starts[numCells] is its length); largest is the longest cell.
// Records are assigned and scattered in parallel chunks; prefix sums over
// the per-chunk per-cell counts, cell-major then chunk, give each chunk
// its own slots in every cell.
func groupByCell(n, numCells int, assign func(i int, dst []int32) []int32) (byCell [][]int32, starts []int, largest int) {
	_, chunks := chunking(n)
	// placed holds the chunks' placements in record order, one slot per
	// record; a chunk that replicates outgrows its slots onto the heap.
	// A record's every placement but its last is stored complemented
	// (negative), so the scatter knows where each record ends.
	placed := make([]int32, n)
	byChunk := make([][]int32, chunks)
	counts := make([]int32, chunks*numCells)
	forChunks(n, func(k, lo, hi int) {
		dst := placed[lo:lo:hi]
		count := counts[k*numCells : (k+1)*numCells]
		for i := lo; i < hi; i++ {
			from := len(dst)
			dst = assign(i, dst)
			for j := from; j < len(dst); j++ {
				count[dst[j]]++
				if j < len(dst)-1 {
					dst[j] = ^dst[j]
				}
			}
		}
		byChunk[k] = dst
	})
	// counts becomes each chunk's next slot in each cell.
	starts = make([]int, numCells+1)
	var at int32
	for c := range numCells {
		starts[c] = int(at)
		for k := range chunks {
			at, counts[k*numCells+c] = at+counts[k*numCells+c], at
		}
	}
	starts[numCells] = int(at)
	flat := make([]int32, at)
	forChunks(n, func(k, lo, _ int) {
		next := counts[k*numCells : (k+1)*numCells]
		i := int32(lo)
		for _, c := range byChunk[k] {
			if c < 0 {
				flat[next[^c]] = i
				next[^c]++
				continue
			}
			flat[next[c]] = i
			next[c]++
			i++
		}
	})
	byCell = make([][]int32, numCells)
	for c := range byCell {
		byCell[c] = flat[starts[c]:starts[c+1]:starts[c+1]]
		largest = max(largest, len(byCell[c]))
	}
	return byCell, starts, largest
}

// keyed is a record index and its sort key.
type keyed struct {
	key uint64
	i   int32
}

// floatKey maps f to a key whose unsigned order is cmp.Compare's order on
// float64: every NaN first and equal, -0 equal to +0.
func floatKey(f float64) uint64 {
	if f != f {
		return 0
	}
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort sorts a by key, stably, in LSD byte passes between a and buf
// (at least len(a) long), skipping every pass whose byte all keys share.
// It returns the sorted slice and the other one, free as scratch.
func radixSort(a, buf []keyed) (sorted, spare []keyed) {
	if len(a) < 2 {
		return a, buf
	}
	buf = buf[:len(a)]
	var counts [8][256]int
	for _, e := range a {
		k := e.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := a[0].key
	for pass := range counts {
		shift := 8 * pass
		c := &counts[pass]
		if c[byte(first>>shift)] == len(a) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, e := range a {
			d := byte(e.key >> shift)
			buf[c[d]] = e
			c[d]++
		}
		a, buf = buf, a
	}
	return a, buf
}

// sortBufs is one goroutine's radix-sort scratch, reused cell after cell;
// a loader first gets the largest cell's length, so it allocates once.
type sortBufs struct{ a, b []keyed }

// get returns two scratch slices of length n.
func (s *sortBufs) get(n int) (a, b []keyed) {
	if cap(s.a) < n {
		s.a, s.b = make([]keyed, n), make([]keyed, n)
	}
	return s.a[:n], s.b[:n]
}

// sortPointCell sorts a cell's record indices, given in input order, into
// the point cell order: (X, then Y) as cmp.Compare orders them, ties in
// input order. One stable pass by Y, then one by X.
func sortPointCell(cell []int32, pts []geom.Point, s *sortBufs) {
	a, b := s.get(len(cell))
	for k, i := range cell {
		a[k] = keyed{floatKey(pts[i].Y), i}
	}
	a, b = radixSort(a, b)
	for k := range a {
		a[k].key = floatKey(pts[a[k].i].X)
	}
	a, _ = radixSort(a, b)
	for k := range a {
		cell[k] = a[k].i
	}
}

// sortRegionCell sorts a cell's record indices, given in input order, by
// their MBRs' MinX as cmp.Compare orders them, ties in input order.
func sortRegionCell(cell []int32, bounds []geom.Rect, s *sortBufs) {
	a, b := s.get(len(cell))
	for k, i := range cell {
		a[k] = keyed{floatKey(bounds[i].MinX), i}
	}
	a, _ = radixSort(a, b)
	for k := range a {
		cell[k] = a[k].i
	}
}

// parallel calls do(s, i) for every i in [0, n), from up to GOMAXPROCS
// goroutines that each take the next unclaimed i, and returns when all
// calls have. s is the calling goroutine's own S, zero at first, so do
// can keep scratch in it from one i to the next.
func parallel[S any](n int, do func(s *S, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(&s, i)
			}
		}()
	}
	wg.Wait()
}
