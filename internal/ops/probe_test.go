package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/rtree"
)

// blockTree is the oracle the block scans are held to: an R-tree
// bulk-loaded over the block, asked the same two questions.
func blockTree(t *testing.T, b *dfs.Block) *rtree.Tree {
	t.Helper()
	pts, err := b.Points()
	if err != nil {
		t.Fatal(err)
	}
	return rtree.BulkPoints(pts, rtree.DefaultFanout)
}

// pointsBlocks builds the two blocks a worker can open over the same
// points: a text block, as from a text frame, and a column block, as from
// the frame of a block written through WritePoints.
func pointsBlocks(t *testing.T, pts []geom.Point) map[string]*dfs.Block {
	t.Helper()
	recs := geomio.EncodePoints(pts)
	blocks := map[string]*dfs.Block{"text": dfs.NewBlockFromRecords("p", recs)}
	if len(pts) == 0 {
		return blocks // a writer cuts no block for no records
	}
	fs := dfs.New(dfs.Config{BlockSize: 1 << 30, DataNodes: 1})
	w, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	lens := make([]uint8, len(pts))
	for i := range pts {
		lens[i] = uint8(len(recs[i]))
	}
	w.WritePoints(pts, lens)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	frame := dfs.EncodeBlockFrame(f.Blocks[0])
	if payload, _ := dfs.UnsealShard(frame); payload[0] != dfs.FrameColumn {
		t.Fatalf("a WritePoints block travels as %q, want a column", payload[0])
	}
	if blocks["column"], err = dfs.DecodeBlockFrame(frame); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// ringPoints returns 64 points all at distance 5 from (10,10), in four
// octant images: exact ties, whichever rank k falls on.
func ringPoints() []geom.Point {
	ring := make([]geom.Point, 64)
	for i := range ring {
		dx, dy := 3.0, 4.0
		if i&1 != 0 {
			dx, dy = dy, dx
		}
		if i&2 != 0 {
			dx = -dx
		}
		if i&4 != 0 {
			dy = -dy
		}
		ring[i] = geom.Point{X: 10 + dx, Y: 10 + dy}
	}
	return ring
}

// latticePoints draws n points from a coarse lattice, so duplicates, points
// on a query edge and exactly tied distances are the rule, not a fluke.
func latticePoints(rng *rand.Rand, n, side int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side))}
	}
	return pts
}

// TestScanProbeMatchesIndexProbeRange: the block scan and the R-tree report
// the same record ids in the same (ascending) order, on blocks that hold every awkward
// coordinate a points file can: duplicates, points on the query's edge,
// both zeros, both infinities and NaN.
func TestScanProbeMatchesIndexProbeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	odd := []geom.Point{
		{X: negZero, Y: 0}, {X: 0, Y: negZero}, {X: negZero, Y: negZero}, {X: 0, Y: 0},
		{X: inf, Y: 3}, {X: 3, Y: -inf}, {X: -inf, Y: inf},
		{X: nan, Y: 3}, {X: 3, Y: nan}, {X: nan, Y: nan},
	}
	blocks := map[string][]geom.Point{
		"empty":   nil,
		"one":     {{X: 4, Y: 4}},
		"lattice": latticePoints(rng, 700, 12),
		"odd":     odd,
	}
	mixed := latticePoints(rng, 400, 9)
	for i, p := range odd {
		mixed[i*37] = p
	}
	blocks["lattice with odd coordinates"] = mixed
	uniform := make([]geom.Point, 1500)
	for i := range uniform {
		uniform[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	blocks["uniform"] = uniform

	queries := []geom.Rect{
		geom.NewRect(2, 2, 7, 7),     // lattice points on all four edges
		geom.NewRect(4, 4, 4, 4),     // zero area, on a lattice point
		geom.NewRect(4.5, 0, 4.5, 9), // zero width, between lattice columns
		geom.NewRect(negZero, negZero, 0, 0),
		geom.NewRect(-1, -1, 200, 200),
		geom.NewRect(50, 50, 40, 40), // NewRect normalises; still a real box
		{MinX: 7, MinY: 7, MaxX: 2, MaxY: 2},
		geom.WorldRect(),
		geom.EmptyRect(),
		{MinX: nan, MinY: 0, MaxX: 10, MaxY: 10},
	}
	for i := 0; i < 40; i++ {
		x, y := float64(rng.Intn(12)), float64(rng.Intn(12))
		queries = append(queries, geom.NewRect(x, y, x+float64(rng.Intn(6)), y+float64(rng.Intn(6))))
	}
	for name, pts := range blocks {
		for shape, b := range pointsBlocks(t, pts) {
			name := name + ", " + shape + " block"
			matched := 0
			tree := blockTree(t, b)
			for _, q := range queries {
				want := tree.Search(q, nil)
				sort.Ints(want) // Search reports in tree order
				got, err := blockRangeIDs(b, q)
				if err != nil {
					t.Fatal(err)
				}
				if !sort.IntsAreSorted(want) || !sort.IntsAreSorted(got) {
					t.Fatalf("%s, query %v: ids out of order: index %v, scan %v", name, q, want, got)
				}
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, query %v: scan found ids %v, index %v", name, q, got, want)
				}
				// And both are right: the definition, spelled out.
				n := 0
				for _, p := range pts {
					if p.X >= q.MinX && p.X <= q.MaxX && p.Y >= q.MinY && p.Y <= q.MaxY {
						n++
					}
				}
				if n != len(want) {
					t.Fatalf("%s, query %v: %d ids, %d points inside", name, q, len(want), n)
				}
				matched += n
			}
			if len(pts) > 0 && matched == 0 {
				t.Fatalf("%s: no query matched anything; the case tests nothing", name)
			}
		}
	}
}

// candidateSet renders nominations as sorted (distance, x, y) bit
// strings: equal sets compare equal, and a distance or coordinate that
// differs in its last bit does not.
func candidateSet(cands []KNNCandidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%016x/%016x/%016x", math.Float64bits(c.Dist), math.Float64bits(c.P.X), math.Float64bits(c.P.Y))
	}
	sort.Strings(out)
	return out
}

// TestScanProbeMatchesIndexProbeKNN: on finite coordinates the block scan
// and the R-tree nominate bit-equal (distance, point) sets — the k nearest plus every
// tie at the k-th distance — for k from 0 to beyond the block, with ties
// straddling k and with every point equidistant.
func TestScanProbeMatchesIndexProbeKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ring := ringPoints()
	uniform := make([]geom.Point, 900)
	for i := range uniform {
		uniform[i] = geom.Point{X: rng.Float64()*2e6 - 1e6, Y: rng.Float64()*2e6 - 1e6}
	}
	// Far points first, near points last: the scan's bound tightens late,
	// and ties with the k-th arrive after it was first fixed.
	descending := latticePoints(rng, 600, 15)
	sort.Slice(descending, func(i, j int) bool {
		return descending[i].Dist(geom.Pt(7, 7)) > descending[j].Dist(geom.Pt(7, 7))
	})
	blocks := map[string][]geom.Point{
		"empty":       nil,
		"one":         {{X: 1, Y: 2}},
		"lattice":     latticePoints(rng, 800, 15),
		"equidistant": ring,
		"uniform":     uniform,
		"descending":  descending,
		"coincident":  make([]geom.Point, 40),
	}
	queries := []geom.Point{geom.Pt(10, 10), geom.Pt(7, 7), geom.Pt(0, 0), geom.Pt(7.5, 7.5), geom.Pt(-3, 40), geom.Pt(1e6, -1e6)}
	for name, pts := range blocks {
		shapes := pointsBlocks(t, pts)
		// The reference is always the text block's tree, so the column's
		// points are held to the ones parsed from the text.
		text := shapes["text"]
		tree := blockTree(t, text)
		textPts, err := text.Points()
		if err != nil {
			t.Fatal(err)
		}
		for shape, b := range shapes {
			name := name + ", " + shape + " block"
			ks := []int{-1, 0, 1, 2, 3, 5, 8, 17, 63, 64, 65, len(pts) - 1, len(pts), len(pts) + 1, 10 * len(pts)}
			for _, q := range queries {
				// The definition: sort all distances; the k-th one is the cut.
				all := make([]float64, len(pts))
				for i, p := range pts {
					all[i] = math.Hypot(p.X-q.X, p.Y-q.Y)
				}
				sort.Float64s(all)
				for _, k := range ks {
					var want []KNNCandidate
					for _, nb := range tree.NearestWithTies(q, k) {
						want = append(want, KNNCandidate{Dist: nb.Dist, P: textPts[nb.Entry.ID]})
					}
					ids, err := blockNearest(b, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.IsSorted(ids) {
						t.Fatalf("%s, q=%v k=%d: ids %v do not ascend", name, q, k, ids)
					}
					got := make([]KNNCandidate, len(ids))
					for i, id := range ids {
						got[i] = KNNCandidate{Dist: pointDist(textPts[id], q), P: textPts[id]}
					}
					if g, w := candidateSet(got), candidateSet(want); len(g) != len(w) || len(w) > 0 && !reflect.DeepEqual(g, w) {
						t.Fatalf("%s, q=%v k=%d: scan nominates %d, index %d:\n scan  %v\n index %v", name, q, k, len(g), len(w), g, w)
					}
					n := 0
					if k > 0 && len(all) > 0 {
						kth := all[min(k, len(all))-1]
						for n < len(all) && all[n] <= kth {
							n++
						}
					}
					if len(got) != n {
						t.Fatalf("%s, q=%v k=%d: %d nominations, want the %d at or inside the k-th distance", name, q, k, len(got), n)
					}
				}
			}
		}
	}
}
