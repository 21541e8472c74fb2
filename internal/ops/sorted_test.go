package ops

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/rtree"
)

// pinPoints pins pts as one partition, two blocks when there are enough of
// them: PinSplit does not care where a split came from.
func pinPoints(t testing.TB, pts []geom.Point) *LocalPartition {
	t.Helper()
	recs := geomio.EncodePoints(pts)
	sp := &mapreduce.Split{Partition: "p", Blocks: []*dfs.Block{
		dfs.NewBlockFromRecords("p", recs[:len(recs)/2]),
		dfs.NewBlockFromRecords("p", recs[len(recs)/2:]),
	}}
	part, err := PinSplit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Pts) != len(pts) || len(part.Recs) != len(pts) || len(part.Tree) != len(pts) {
		t.Fatalf("pinned %d points, %d records, %d indexed, want %d", len(part.Pts), len(part.Recs), len(part.Tree), len(pts))
	}
	return part
}

// sortedPartitions are the shapes a partition's sorted column can take: a
// slab that is a sliver, the whole partition, one point, nothing.
func sortedPartitions() map[string][]geom.Point {
	rng := rand.New(rand.NewSource(23))
	area := geom.NewRect(0, 0, 1000, 1000)
	equalX, equalY := make([]geom.Point, 500), make([]geom.Point, 500)
	for i := range equalX {
		equalX[i] = geom.Point{X: 400, Y: float64(rng.Intn(300))}
		equalY[i] = geom.Point{X: float64(rng.Intn(300)), Y: 400}
	}
	// The ring's exact ties among lattice points nearer and farther.
	ring := append(latticePoints(rng, 200, 21), ringPoints()...)
	return map[string][]geom.Point{
		"empty":      nil,
		"one":        {{X: 4, Y: 4}},
		"clustered":  datagen.Points(datagen.Clustered, 3000, area, 7),
		"uniform":    datagen.Points(datagen.Uniform, 2000, area, 8),
		"equal x":    equalX,
		"equal y":    equalY,
		"duplicates": latticePoints(rng, 900, 12),
		"ring":       ring,
		"coincident": make([]geom.Point, 40),
	}
}

// TestSortedSearchMatchesTree: the slab probe reports exactly the ids the
// R-tree over the same points does once those are sorted, and exactly the
// points Rect.ContainsPoint admits, ascending — for windows outside,
// touching, inside and covering the partition, and of zero area on a point.
func TestSortedSearchMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, pts := range sortedPartitions() {
		part := pinPoints(t, pts)
		tree := rtree.BulkPoints(part.Pts, rtree.DefaultFanout)
		mbr := geom.EmptyRect()
		for _, p := range pts {
			mbr = mbr.ExpandPoint(p)
		}
		queries := []geom.Rect{
			geom.WorldRect(),
			geom.EmptyRect(),
			geom.NewRect(-50, -50, -10, -10),
			geom.NewRect(2, 2, 7, 7),
			geom.NewRect(4.5, 0, 4.5, 9),
		}
		if len(pts) > 0 {
			w, h := mbr.Width()+1, mbr.Height()+1
			queries = append(queries,
				mbr, // covering, every edge touched
				geom.NewRect(mbr.MinX-w, mbr.MinY-h, mbr.MaxX+w, mbr.MaxY+h),
				geom.NewRect(mbr.MaxX+1, mbr.MinY, mbr.MaxX+w, mbr.MaxY),                  // right of it
				geom.NewRect(mbr.MinX-w, mbr.MinY, mbr.MinX-1, mbr.MaxY),                  // left of it
				geom.NewRect(mbr.MinX, mbr.MaxY+1, mbr.MaxX, mbr.MaxY+h),                  // inside the slab, above
				geom.NewRect(mbr.MaxX, mbr.MinY-h, mbr.MaxX+w, mbr.MaxY+h),                // touching the right edge
				geom.NewRect(mbr.MinX-w, mbr.MinY-h, mbr.MinX, mbr.MaxY+h),                // touching the left edge
				geom.NewRect(mbr.MinX-w, mbr.MinY-h, mbr.MaxX+w, mbr.MinY),                // touching the bottom edge
				geom.NewRect(mbr.MinX, mbr.MinY, mbr.MaxX, mbr.MinY),                      // full width, zero height
				geom.Rect{MinX: mbr.MaxX, MinY: mbr.MaxY, MaxX: mbr.MinX, MaxY: mbr.MinY}, // inverted
			)
		}
		for i := 0; i < 60 && len(pts) > 0; i++ {
			p := part.Pts[rng.Intn(len(pts))]
			queries = append(queries,
				geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, // zero area, on a point
				geom.NewRect(p.X, p.Y, p.X+rng.Float64()*mbr.Width()/4, p.Y+rng.Float64()*mbr.Height()/4),
				geom.NewRect(p.X-rng.Float64()*mbr.Width()/8, p.Y-rng.Float64()*mbr.Height()/2, p.X, p.Y),
			)
		}
		matched := 0
		for _, q := range queries {
			want := tree.Search(q, nil)
			sort.Ints(want)
			var brute []int
			for i, p := range part.Pts {
				if q.ContainsPoint(p) {
					brute = append(brute, i)
				}
			}
			got := part.Tree.Search(q, nil)
			if !slices.Equal(got, want) || !slices.Equal(got, brute) {
				t.Fatalf("%s, query %v: slab %v\n tree %v\n brute force %v", name, q, got, want, brute)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s, query %v: %d ids in a buffer of %d; a nil buffer is sized once, exactly", name, q, len(got), cap(got))
			}
			// Search appends: what dst held stays, and a dst with room for
			// the slab is used in place.
			buf := make([]int, 1, 1+len(pts))
			buf[0] = -7
			if got := part.Tree.Search(q, buf); got[0] != -7 || !slices.Equal(got[1:], want) || &got[0] != &buf[0] {
				t.Fatalf("%s, query %v: appended to [-7] with room: %v, want %v after it, in place", name, q, got, want)
			}
			if got := part.Tree.Search(q, buf[:1:1]); got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s, query %v: appended to a full [-7]: %v, want %v after it", name, q, got, want)
			}
			matched += len(want)
		}
		if len(pts) > 0 && matched == 0 {
			t.Fatalf("%s: no query matched anything; the case tests nothing", name)
		}
	}
}

// nomineeSet renders nominations as sorted (distance bits, id) strings.
func nomineeSet(dists []float64, ids []int) []string {
	out := make([]string, len(ids))
	for i := range ids {
		out[i] = fmt.Sprintf("%016x/%d", math.Float64bits(dists[i]), ids[i])
	}
	sort.Strings(out)
	return out
}

func slabNearest(s SortedPoints, q geom.Point, k int) []string {
	var (
		dists []float64
		ids   []int
	)
	for _, n := range s.NearestWithTies(q, k) {
		dists, ids = append(dists, n.dist), append(ids, n.id)
	}
	return nomineeSet(dists, ids)
}

// TestSortedNearestMatchesTree: the expanding slab nominates the same
// (distance, id) set as the R-tree's NearestWithTies, distances bit-equal,
// with q left of, right of, inside and on the partition and with planted
// ties across the k-th rank.
func TestSortedNearestMatchesTree(t *testing.T) {
	for name, pts := range sortedPartitions() {
		part := pinPoints(t, pts)
		tree := rtree.BulkPoints(part.Pts, rtree.DefaultFanout)
		n := len(pts)
		queries := []geom.Point{
			geom.Pt(10, 10), geom.Pt(7.5, 7.5), geom.Pt(400, 150), geom.Pt(150, 400),
			geom.Pt(-1e6, 500), geom.Pt(1e6, 500), geom.Pt(500, -1e6), geom.Pt(500, 500),
		}
		if n > 0 {
			queries = append(queries, part.Pts[0], part.Pts[n/2], part.Pts[n-1])
		}
		for _, q := range queries {
			for _, k := range []int{-1, 0, 1, 2, 10, 63, 64, 65, n - 1, n, n + 5} {
				var (
					dists []float64
					ids   []int
				)
				for _, nb := range tree.NearestWithTies(q, k) {
					dists, ids = append(dists, nb.Dist), append(ids, nb.Entry.ID)
				}
				want, got := nomineeSet(dists, ids), slabNearest(part.Tree, q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, q=%v k=%d: slab nominates %d, tree %d:\n slab %v\n tree %v", name, q, k, len(got), len(want), got, want)
				}
				if k > 0 && len(got) < min(k, n) {
					t.Fatalf("%s, q=%v k=%d: %d nominations from %d points", name, q, k, len(got), n)
				}
			}
		}
	}
}

// TestSortedProbeCoordinates pins the order PinSplit sorts in and what the
// probes make of every awkward coordinate: a NaN X sorts first and the
// probes never see it, a NaN Y fails every comparison where it lies, and
// both zeros, both infinities, subnormals and 17-digit values are ordinary
// numbers to the binary search.
func TestSortedProbeCoordinates(t *testing.T) {
	inf, nan, negZero, tiny := math.Inf(1), math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64
	pts := []geom.Point{
		{X: 3, Y: nan}, {X: 0.1 + 0.2, Y: 0.30000000000000004}, {X: nan, Y: 3}, {X: inf, Y: 3},
		{X: negZero, Y: 0}, {X: 0, Y: negZero}, {X: tiny, Y: -tiny}, {X: -tiny, Y: tiny},
		{X: nan, Y: nan}, {X: 3, Y: -inf}, {X: -inf, Y: inf}, {X: 0.30000000000000004, Y: 0.1 + 0.2},
		{X: 3, Y: 3}, {X: 0, Y: 0}, {X: nan, Y: -inf}, {X: 1.7976931348623157e308, Y: 1},
	}
	part := pinPoints(t, pts)
	nans := 0
	for i, p := range part.Pts {
		if math.IsNaN(p.X) {
			if i != nans {
				t.Fatalf("NaN X at %d after %d of them: not a prefix: %v", i, nans, part.Pts)
			}
			nans++
		} else if i > nans && part.Pts[i-1].X > p.X {
			t.Fatalf("X descends at %d: %v", i, part.Pts)
		}
	}
	if nans != 3 {
		t.Fatalf("%d NaN-X points pinned, want 3", nans)
	}
	tree := rtree.BulkPoints(part.Pts, rtree.DefaultFanout)
	for _, q := range []geom.Rect{
		geom.WorldRect(),
		{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		geom.NewRect(negZero, negZero, 0, 0),
		geom.NewRect(-tiny, -tiny, tiny, tiny),
		geom.NewRect(0.1+0.2, 0.1+0.2, 0.30000000000000004, 0.30000000000000004),
		geom.NewRect(3, -inf, 3, inf),
		geom.NewRect(3, 3, inf, 3),
		{MinX: nan, MinY: -inf, MaxX: inf, MaxY: inf},
		{MinX: -inf, MinY: -inf, MaxX: nan, MaxY: inf},
		{MinX: -inf, MinY: nan, MaxX: inf, MaxY: inf},
	} {
		want := tree.Search(q, nil)
		sort.Ints(want)
		var brute []int
		for i, p := range part.Pts {
			if q.ContainsPoint(p) {
				brute = append(brute, i)
			}
		}
		if got := part.Tree.Search(q, nil); !slices.Equal(got, want) || !slices.Equal(got, brute) {
			t.Fatalf("query %v: slab %v, tree %v, brute force %v over %v", q, got, want, brute, part.Pts)
		}
	}
	if got := part.Tree.Search(geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}, nil); len(got) != 12 {
		t.Fatalf("the whole plane holds %v, want the 12 points without a NaN", got)
	}
	// kNN: a point with a NaN coordinate ranks nowhere, whatever k; the rest
	// are ranked as the definition ranks them.
	for _, q := range []geom.Point{geom.Pt(0, 0), geom.Pt(3, 3), geom.Pt(-5, 2), geom.Pt(1e300, 0)} {
		var all []float64
		for _, p := range part.Pts {
			// Hypot(NaN, ±Inf) is +Inf: it is the NaN X that has no rank.
			if d := math.Hypot(p.X-q.X, p.Y-q.Y); !math.IsNaN(p.X) && !math.IsNaN(d) {
				all = append(all, d)
			}
		}
		sort.Float64s(all)
		for _, k := range []int{1, 2, 5, 12, 13, 16, 30} {
			want := 0
			for kth := all[min(k, len(all))-1]; want < len(all) && all[want] <= kth; {
				want++
			}
			noms := part.Tree.NearestWithTies(q, k)
			for _, n := range noms {
				p := part.Pts[n.id]
				if math.IsNaN(p.X) || math.IsNaN(p.Y) {
					t.Fatalf("q=%v k=%d: nominated %v", q, k, p)
				}
				if d := math.Hypot(p.X-q.X, p.Y-q.Y); math.Float64bits(d) != math.Float64bits(n.dist) {
					t.Fatalf("q=%v k=%d: %v at %v, want %v", q, k, p, n.dist, d)
				}
			}
			if len(noms) != want {
				t.Fatalf("q=%v k=%d: %d nominations, want the %d at or inside the k-th distance", q, k, len(noms), want)
			}
		}
	}
}

// TestPinnedBytesIsWhatIsHeld: Bytes, which the memory tier budgets by, is
// within a tenth of what the partition's slices hold.
func TestPinnedBytesIsWhatIsHeld(t *testing.T) {
	for name, pts := range sortedPartitions() {
		if len(pts) < 100 {
			continue
		}
		part := pinPoints(t, pts)
		held := int64(cap(part.Pts))*int64(unsafe.Sizeof(geom.Point{})) +
			int64(cap(part.Recs))*int64(unsafe.Sizeof("")) +
			int64(cap(part.Frag)) + int64(cap(part.FragOff))*int64(unsafe.Sizeof(int32(0)))
		for _, r := range part.Recs {
			held += int64(len(r))
		}
		if unsafe.SliceData(part.Tree) != unsafe.SliceData(part.Pts) {
			t.Fatalf("%s: the index is a copy of the points, not a view", name)
		}
		if diff := math.Abs(float64(part.Bytes-held)) / float64(held); diff > 0.10 {
			t.Fatalf("%s: Bytes = %d, slices hold %d (%.0f%% apart)", name, part.Bytes, held, 100*diff)
		}
	}
}

var benchSink int

// BenchmarkWorstCaseProbe prices the bound a request's probe has: the scan
// is O(slab) and the slab is at most the partition. With every X equal the
// slab is the partition for any window that reaches it and any q, so a
// full-width, zero-height window and a kNN at the partition's edge scan
// all of it; the R-tree over the same points is timed beside the slab
// (its range ids sorted, as the serving path had to). DESIGN.md quotes
// these.
func BenchmarkWorstCaseProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	pts := make([]geom.Point, 8192) // a serve-hot partition holds ≈ 7 000
	for i := range pts {
		pts[i] = geom.Point{X: 400, Y: rng.Float64() * 1000}
	}
	part := pinPoints(b, pts)
	tree := rtree.BulkPoints(part.Pts, rtree.DefaultFanout)
	y := part.Pts[len(pts)/2].Y
	window, q := geom.NewRect(0, y, 1000, y), geom.Pt(400, -1)
	ids := make([]int, 0, len(pts))
	b.Run("range/slab", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(part.Tree.Search(window, ids[:0]))
		}
	})
	b.Run("range/rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := tree.Search(window, ids[:0])
			slices.Sort(got)
			benchSink += len(got)
		}
	})
	b.Run("knn/slab", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(part.Tree.NearestWithTies(q, 10))
		}
	})
	b.Run("knn/rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += len(tree.NearestWithTies(q, 10))
		}
	})
}
