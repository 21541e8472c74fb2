package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
)

// Everything here is a pure function of (seed, scale): the same seed gives
// the same corpus, query pool and job schedule. The program under test
// never sees the seed, only these generated inputs.

var world = geom.NewRect(0, 0, 1e6, 1e6)

// sizes are the workload dimensions. Scale 1 is the benchmark; tests run a
// twentieth of it.
type sizes struct {
	points      int // serve-* and jobs-* corpus
	slicePoints int // one ingest-query dataset slice
	pool        int // serving query pool
	tessA       int // region file a is tessA x tessA polygons
	tessB       int
	jobWindows  int // indexed range windows the job rounds rotate over
	jobKNN      int
	jobHeap     int
}

func sizesFor(scale float64) sizes {
	n := func(full, floor int) int {
		v := int(math.Round(float64(full) * scale))
		if v < floor {
			v = floor
		}
		return v
	}
	side := func(full, floor int) int {
		v := int(math.Round(float64(full) * math.Sqrt(scale)))
		if v < floor {
			v = floor
		}
		return v
	}
	return sizes{
		points:      n(400_000, 2000),
		slicePoints: n(100_000, 1000),
		pool:        n(512, 32),
		// At 60 and 50 the join took as long as the convex hull, the two
		// largest jobs of every round, and op_p95_ms fell on one or the other
		// as the seed had it (15.7 or 17.8 ms). At 72 and 60 the join is
		// clearly the longer and the percentile stays inside its mode.
		tessA:      side(72, 4),
		tessB:      side(60, 3),
		jobWindows: n(64, 8),
		jobKNN:     n(32, 4),
		jobHeap:    n(8, 1),
	}
}

// clusterDraws is how many independent draws of the clustered generator a
// corpus merges. One draw has 24 clusters whose weights and spreads are
// redrawn per seed, and some seeds put over half the points into two or
// three of them: under the uniform grid that is one partition holding most
// of the file, and memory and latency followed the seed, not the code.
// Four draws give 96 clusters and a skew that is still heavy but repeats.
const clusterDraws = 4

func genPoints(seed int64, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for d := 0; d < clusterDraws; d++ {
		share := n / clusterDraws
		if d == clusterDraws-1 {
			share = n - len(pts)
		}
		pts = append(pts, datagen.Points(datagen.Clustered, share, world, seed*clusterDraws+int64(d))...)
	}
	return pts
}

func genRegions(seed int64, side int) []geom.Region {
	pgs := datagen.Tessellation(side, side, world, seed)
	out := make([]geom.Region, len(pgs))
	for i, pg := range pgs {
		out[i] = geom.RegionOf(pg)
	}
	return out
}

// query is one serving request. Path is what the client sends; the typed
// fields are the same values parsed back from Path's own text, so a brute
// force check sees exactly the floats the server parses.
type query struct {
	Path string
	KNN  bool
	Rect geom.Rect  // range
	Pt   geom.Point // kNN
	K    int
}

// coord renders v with one decimal and returns the text and the float that
// text parses to.
func coord(v float64) (string, float64) {
	s := strconv.FormatFloat(v, 'f', 1, 64)
	f, _ := strconv.ParseFloat(s, 64) // s was just formatted from a finite float
	return s, f
}

var knnKs = [...]int{1, 10, 50}

// evenSeq is the golden-ratio sequence from a seeded start: values of [0, 1)
// of which any few in a row, and all of them together, are evenly spaced.
// The sizes and kinds of a pool's queries are laid out with it and only
// their places are drawn at random, so that two seeds' pools differ in
// where they ask and not in how much: with window sizes drawn
// independently, the median window of a 64-window pool — and the median
// job with it — moved by a seventh from seed to seed.
type evenSeq struct {
	start float64
	n     int
}

func (s *evenSeq) next() float64 {
	_, f := math.Modf(s.start + float64(s.n)*0.6180339887498949)
	s.n++
	return f
}

// genPool is the serving mix: 70 % range windows, 30 % kNN with k in
// {1, 10, 50}, every query centred on a point of the corpus so the load
// follows the data's skew. A window is sized to hold a share of the corpus
// that is log-uniform in [0.25 %, 2 %] — about 150 KB of body on average
// at full scale. Sizing by content and not by side length is what lets two
// seeds be compared: the clustered generator draws a new skew per seed,
// and fixed-side windows over it returned bodies whose mean differed by
// 2x from seed to seed, which moved every end-to-end metric with it.
// Smaller windows than these let the HTTP client's own scheduling dominate.
func genPool(seed int64, file string, pts []geom.Point, n int) []query {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pool := make([]query, n)
	sizes := evenSeq{start: rng.Float64()}
	var buf []float64
	knns := 0
	for i := range pool {
		c := pts[rng.Intn(len(pts))]
		// Three in every ten are kNN, evenly spaced: 0, 4 and 7 of each ten.
		if i*3%10 >= 3 {
			share := 0.0025 * math.Pow(8, sizes.next())
			var half float64
			half, buf = halfSideHolding(pts, c, int(share*float64(len(pts))), buf)
			pool[i] = rangeQuery(file, c, half)
		} else {
			xs, x := coord(c.X)
			ys, y := coord(c.Y)
			k := knnKs[knns%len(knnKs)]
			knns++
			pool[i] = query{
				Path: fmt.Sprintf("/knn?file=%s&point=%s,%s&k=%d", file, xs, ys, k),
				KNN:  true, Pt: geom.Point{X: x, Y: y}, K: k,
			}
		}
	}
	return pool
}

// halfSideHolding returns the half side of the square centred on c that
// holds about m points: the m-th smallest Chebyshev distance from c. buf
// is scratch space, returned for reuse.
func halfSideHolding(pts []geom.Point, c geom.Point, m int, buf []float64) (float64, []float64) {
	buf = buf[:0]
	for _, p := range pts {
		buf = append(buf, math.Max(math.Abs(p.X-c.X), math.Abs(p.Y-c.Y)))
	}
	m = max(1, min(m, len(buf)))
	return nthSmallest(buf, m-1), buf
}

// nthSmallest returns the element that would be at index n if v were
// sorted, partially reordering v (quickselect, median-of-three pivots).
func nthSmallest(v []float64, n int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return v[n]
		}
	}
	return v[n]
}

func rangeQuery(file string, c geom.Point, half float64) query {
	x1s, x1 := coord(c.X - half)
	y1s, y1 := coord(c.Y - half)
	x2s, x2 := coord(c.X + half)
	y2s, y2 := coord(c.Y + half)
	return query{
		Path: fmt.Sprintf("/rangequery?file=%s&rect=%s,%s,%s,%s", file, x1s, y1s, x2s, y2s),
		Rect: geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2},
	}
}

// clientOrder is the order in which one closed-loop client walks the pool:
// a seeded permutation, repeated. Two clients get different permutations.
func clientOrder(seed int64, client, n int) []int {
	return rand.New(rand.NewSource(seed*104729 + int64(client) + 1)).Perm(n)
}

// Job kinds, in the order a round runs them.
const (
	jobRangeIdx  = "range_idx"
	jobKNN       = "knn"
	jobRangeHeap = "range_heap"
	jobJoin      = "join"
	jobSkyline   = "skyline"
	jobHull      = "hull"
	jobClosest   = "closest"
)

// jobOp is one MapReduce job of a round; Arg indexes the kind's pool.
type jobOp struct {
	Kind string
	Arg  int
}

// jobPools are the inputs the job rounds rotate over.
type jobPools struct {
	Windows []geom.Rect // indexed range
	KNN     []geom.Point
	Heap    []geom.Rect // heap scan
}

const jobKNNK = 10

func genJobPools(seed int64, pts []geom.Point, sz sizes) jobPools {
	rng := rand.New(rand.NewSource(seed*15485863 + 29))
	// Job windows hold a share of the corpus between 1 % and 2.5 %, sized by
	// content for the reason genPool gives. The range is narrow so that the
	// range jobs, half of all jobs, form one dense mode for the median job
	// to sit in: over a tenfold range of sizes the median sat on a thin
	// slope and moved by a sixth from seed to seed.
	var buf []float64
	sizes := evenSeq{start: rng.Float64()}
	window := func() geom.Rect {
		c := pts[rng.Intn(len(pts))]
		share := 0.01 * math.Pow(2.5, sizes.next())
		var half float64
		half, buf = halfSideHolding(pts, c, int(share*float64(len(pts))), buf)
		return rangeQuery("", c, half).Rect
	}
	var p jobPools
	for i := 0; i < sz.jobWindows; i++ {
		p.Windows = append(p.Windows, window())
	}
	for i := 0; i < sz.jobKNN; i++ {
		c := pts[rng.Intn(len(pts))]
		_, x := coord(c.X)
		_, y := coord(c.Y)
		p.KNN = append(p.KNN, geom.Point{X: x, Y: y})
	}
	for i := 0; i < sz.jobHeap; i++ {
		p.Heap = append(p.Heap, window())
	}
	return p
}

// jobRound is round r of the job schedule: 8 indexed range jobs, 4 kNN, 1
// heap scan, 1 indexed join, then — in process only, the runtime cannot
// ship them to workers yet — 1 skyline, 1 convex hull and, every fourth
// round, 1 closest pair. The pools rotate so a window of rounds covers
// every generated query.
func jobRound(r int, p jobPools, remote bool) []jobOp {
	var ops []jobOp
	for i := 0; i < 8; i++ {
		ops = append(ops, jobOp{jobRangeIdx, (8*r + i) % len(p.Windows)})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, jobOp{jobKNN, (4*r + i) % len(p.KNN)})
	}
	ops = append(ops, jobOp{jobRangeHeap, r % len(p.Heap)}, jobOp{jobJoin, 0})
	if remote {
		return ops
	}
	ops = append(ops, jobOp{jobSkyline, 0}, jobOp{jobHull, 0})
	if r%4 == 3 {
		ops = append(ops, jobOp{jobClosest, 0})
	}
	return ops
}

// Ingest techniques and slices rotate so that all sixteen combinations
// come round.
func ingestCycle(c int) (slice, technique int) {
	return c % 4, (c + c/4) % 4
}
