package ops

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/sindex"
)

func newSys() *core.System {
	return core.New(core.Config{BlockSize: 8 << 10, Workers: 8, Seed: 1})
}

func pointKey(p geom.Point) string { return geomio.EncodePoint(p) }

func TestRangeQueryPointsMatchesScan(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 4000, area, 3)
	queries := []geom.Rect{
		geom.NewRect(100, 100, 300, 250),
		geom.NewRect(0, 0, 1000, 1000),
		geom.NewRect(990, 990, 999, 999),
		geom.NewRect(-50, -50, -10, -10), // empty
	}
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.STR, sindex.QuadTree, sindex.Hilbert} {
		sys := newSys()
		if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			var want []string
			for _, p := range pts {
				if q.ContainsPoint(p) {
					want = append(want, pointKey(p))
				}
			}
			got, rep, err := RangeQueryPoints(sys, "pts", q)
			if err != nil {
				t.Fatal(err)
			}
			gotKeys := make([]string, len(got))
			for i, p := range got {
				gotKeys[i] = pointKey(p)
			}
			sort.Strings(want)
			sort.Strings(gotKeys)
			if len(gotKeys) != len(want) {
				t.Fatalf("%v/%v: %d results, want %d", tech, q, len(gotKeys), len(want))
			}
			for i := range want {
				if gotKeys[i] != want[i] {
					t.Fatalf("%v/%v: result %d mismatch", tech, q, i)
				}
			}
			// Small queries must not touch every partition.
			if q.Area() < 1e5 && rep.SplitsTotal > 4 && rep.Splits == rep.SplitsTotal {
				t.Errorf("%v: small query processed all %d partitions", tech, rep.SplitsTotal)
			}
		}
	}
}

func TestRangeQueryHeapFileScansAll(t *testing.T) {
	area := geom.NewRect(0, 0, 100, 100)
	pts := datagen.Points(datagen.Uniform, 2000, area, 5)
	sys := newSys()
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	q := geom.NewRect(10, 10, 20, 20)
	got, rep, err := RangeQueryPoints(sys, "heap", q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if q.ContainsPoint(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("%d results, want %d", len(got), want)
	}
	if rep.Splits != rep.SplitsTotal {
		t.Error("heap file has no pruning information; all blocks must be read")
	}
}

func TestRangeQueryRegionsDeduplicates(t *testing.T) {
	area := geom.NewRect(0, 0, 400, 400)
	polys := datagen.RandomPolygons(300, 5, 30, area, 7)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	q := geom.NewRect(100, 100, 320, 300)
	var want int
	for _, rg := range regions {
		if rg.Bounds().Intersects(q) {
			want++
		}
	}
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.QuadTree, sindex.STR} {
		sys := newSys()
		if _, err := sys.LoadRegions("regs", regions, tech); err != nil {
			t.Fatal(err)
		}
		got, _, err := RangeQueryRegions(sys, "regs", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("%v: %d results, want %d (replication dedup broken?)", tech, len(got), want)
		}
	}
}

// TestRangeQueryRegionsPlanHeat: the region range query runs the plan's
// filter step, so its partition heat scans exactly RangeCandidates' kept
// set, prunes the rest, and credits each kept partition with its records
// and the matches it reported.
func TestRangeQueryRegionsPlanHeat(t *testing.T) {
	area := geom.NewRect(0, 0, 400, 400)
	polys := datagen.RandomPolygons(300, 5, 30, area, 7)
	regions := make([]geom.Region, len(polys))
	for i, pg := range polys {
		regions[i] = geom.RegionOf(pg)
	}
	q := geom.NewRect(100, 100, 220, 200)
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.STRPlus} {
		sys := newSys()
		f, err := sys.LoadRegions("regs", regions, tech)
		if err != nil {
			t.Fatal(err)
		}
		splits := f.Splits()
		kept := RangeCandidates(splits, q)
		if len(kept) == 0 || len(kept) == len(splits) {
			t.Fatalf("%v: setup keeps %d of %d partitions, want some pruned", tech, len(kept), len(splits))
		}
		got, _, err := RangeQueryRegions(sys, "regs", q)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]sindex.PartitionHeat{}
		for _, sp := range splits {
			want[sp.Partition] = sindex.PartitionHeat{Partition: sp.Partition, Prunes: 1}
		}
		for _, sp := range kept {
			want[sp.Partition] = sindex.PartitionHeat{Partition: sp.Partition, Scans: 1, Records: int64(sp.NumRecords())}
		}
		var matches int64
		for _, fh := range sys.Hotness().Report() {
			if fh.File != "regs" {
				continue
			}
			for _, ph := range fh.Partitions {
				matches += ph.Matches
				ph.Matches = 0
				if ph != want[ph.Partition] {
					t.Errorf("%v: partition %s heat %+v, want %+v", tech, ph.Partition, ph, want[ph.Partition])
				}
				delete(want, ph.Partition)
			}
		}
		if len(want) != 0 || matches != int64(len(got)) {
			t.Errorf("%v: partitions without heat %v; %d matches credited for %d results", tech, want, matches, len(got))
		}
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 3000, area, 11)
	sys := newSys()
	if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q geom.Point
		k int
	}{
		{geom.Pt(500, 500), 10},
		{geom.Pt(1, 1), 5},       // corner
		{geom.Pt(2000, 2000), 7}, // outside the space entirely
		{geom.Pt(333.3, 777.7), 1},
		{geom.Pt(500, 500), 3000}, // k = n
	} {
		got, _, err := KNN(sys, "pts", tc.q, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = p.Dist(tc.q)
		}
		sort.Float64s(dists)
		k := tc.k
		if k > len(pts) {
			k = len(pts)
		}
		if len(got) != k {
			t.Fatalf("q=%v k=%d: got %d results", tc.q, tc.k, len(got))
		}
		for i, p := range got {
			if d := p.Dist(tc.q) - dists[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("q=%v k=%d: neighbour %d dist %g, want %g", tc.q, tc.k, i, p.Dist(tc.q), dists[i])
			}
		}
	}
}

// TestKNNSelectsPerBlockAndMergesInPlan: a kNN round is a map-only
// selection job — no shuffle, no reduce, its output the kept blocks'
// candidates as a point column — and the plan's one merge still answers
// exactly, here with the tie group at the k-th distance spread over many
// small blocks of a heap file (two rounds: the home split, then all).
func TestKNNSelectsPerBlockAndMergesInPlan(t *testing.T) {
	q := geom.Pt(100, 100)
	var pts []geom.Point
	for _, o := range [][2]float64{{1, 0}, {0, -2}, {-1, -1}} { // inside the ring
		pts = append(pts, geom.Pt(q.X+o[0], q.Y+o[1]))
	}
	ring := map[geom.Point]bool{} // every point at distance exactly 5
	for _, o := range [][2]float64{{3, 4}, {4, 3}, {5, 0}, {0, 5}} {
		for _, sx := range []float64{-1, 1} {
			for _, sy := range []float64{-1, 1} {
				p := geom.Pt(q.X+sx*o[0], q.Y+sy*o[1])
				if !ring[p] {
					ring[p] = true
					pts = append(pts, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(4))
	for len(pts) < 400 {
		if p := geom.Pt(rng.Float64()*200, rng.Float64()*200); p.Dist(q) > 20 {
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	sys := core.New(core.Config{BlockSize: 256, Workers: 4, Seed: 1})
	if err := sys.LoadPointsHeap("heap", pts); err != nil {
		t.Fatal(err)
	}
	f, err := sys.FS().Open("heap")
	if err != nil {
		t.Fatal(err)
	}
	ringBlocks := 0
	for _, b := range f.Blocks {
		bp, err := b.Points()
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(bp, func(p geom.Point) bool { return ring[p] }) {
			ringBlocks++
		}
	}
	if ringBlocks < 3 {
		t.Fatalf("the tie group spans %d blocks, want several", ringBlocks)
	}

	all := make([]KNNCandidate, len(pts))
	for i, p := range pts {
		all[i] = KNNCandidate{Dist: math.Hypot(p.X-q.X, p.Y-q.Y), P: p}
	}
	slices.SortFunc(all, compareCandidates)
	for _, k := range []int{4, 8, 14, 15} {
		tr := obs.NewJobTrace("knn")
		got, rep, err := KNNCtx(obs.ContextWithTrace(context.Background(), tr), sys, NewPlan(sys, NewIndexed(f)), q, k, "heap.knn")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: %d neighbours", k, len(got))
		}
		for i, p := range got {
			if w := all[i].P; math.Float64bits(p.X) != math.Float64bits(w.X) || math.Float64bits(p.Y) != math.Float64bits(w.Y) {
				t.Fatalf("k=%d: neighbour %d is %v, want %v", k, i, p, w)
			}
		}
		if n := rep.Counters[mapreduce.CounterShuffleBytes]; n != 0 {
			t.Errorf("k=%d: final round shuffled %d bytes", k, n)
		}
		jobs := 0
		for _, sp := range tr.Spans() {
			switch {
			case sp.Name == "job":
				jobs++
			case sp.Phase == obs.PhaseReduce:
				t.Errorf("k=%d: a round ran a reduce span %q", k, sp.Name)
			case sp.Name == "phase."+obs.PhaseShuffle && sp.Bytes != 0:
				t.Errorf("k=%d: a round shuffled %d bytes", k, sp.Bytes)
			}
		}
		if jobs != 2 {
			t.Errorf("k=%d: %d rounds ran, want 2", k, jobs)
		}
		for _, out := range []string{"heap.knn.r1", "heap.knn.r2"} {
			of, err := sys.FS().Open(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range of.Blocks {
				if payload, _ := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); payload[0] != dfs.FrameColumn {
					t.Errorf("k=%d: %s block %d is a %q frame, want a column", k, out, b.ID, payload[0])
				}
			}
		}
	}
}

func joinOracle(a, b []geom.Region) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x.Bounds().Intersects(y.Bounds()) {
				n++
			}
		}
	}
	return n
}

func TestSpatialJoinIndexedMatchesOracle(t *testing.T) {
	area := geom.NewRect(0, 0, 500, 500)
	aPolys := datagen.RandomPolygons(150, 5, 20, area, 13)
	bPolys := datagen.RandomPolygons(120, 4, 25, area, 17)
	a := make([]geom.Region, len(aPolys))
	for i, pg := range aPolys {
		a[i] = geom.RegionOf(pg)
	}
	b := make([]geom.Region, len(bPolys))
	for i, pg := range bPolys {
		b[i] = geom.RegionOf(pg)
	}
	want := joinOracle(a, b)
	for _, tech := range []sindex.Technique{sindex.Grid, sindex.STR, sindex.QuadTree} {
		sys := newSys()
		if _, err := sys.LoadRegions("a", a, tech); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.LoadRegions("b", b, tech); err != nil {
			t.Fatal(err)
		}
		pairs, _, err := SpatialJoinIndexed(sys, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != want {
			t.Fatalf("%v: %d pairs, want %d", tech, len(pairs), want)
		}
	}
}

func TestSpatialJoinPBSMMatchesOracle(t *testing.T) {
	area := geom.NewRect(0, 0, 500, 500)
	aPolys := datagen.RandomPolygons(100, 5, 20, area, 19)
	bPolys := datagen.RandomPolygons(90, 4, 25, area, 23)
	a := make([]geom.Region, len(aPolys))
	for i, pg := range aPolys {
		a[i] = geom.RegionOf(pg)
	}
	b := make([]geom.Region, len(bPolys))
	for i, pg := range bPolys {
		b[i] = geom.RegionOf(pg)
	}
	want := joinOracle(a, b)
	sys := newSys()
	if err := sys.LoadRegionsHeap("a", a); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRegionsHeap("b", b); err != nil {
		t.Fatal(err)
	}
	for _, gridSide := range []int{1, 4, 9} {
		pairs, _, err := SpatialJoinPBSM(sys, "a", "b", gridSide)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != want {
			t.Fatalf("grid %d: %d pairs, want %d", gridSide, len(pairs), want)
		}
	}
}

func TestPlaneSweepJoinMatchesNestedLoop(t *testing.T) {
	area := geom.NewRect(0, 0, 200, 200)
	aPolys := datagen.RandomPolygons(60, 4, 15, area, 29)
	bPolys := datagen.RandomPolygons(70, 4, 18, area, 31)
	items := func(polys []geom.Polygon) []joinItem {
		out := make([]joinItem, len(polys))
		for i, pg := range polys {
			out[i] = joinItem{rec: geomio.EncodePolygon(pg), b: pg.Bounds()}
		}
		return out
	}
	count := 0
	planeSweepJoin(items(aPolys), items(bPolys), func(_, _ string, _ geom.Rect) { count++ })
	want := 0
	for _, x := range aPolys {
		for _, y := range bPolys {
			if x.Bounds().Intersects(y.Bounds()) {
				want++
			}
		}
	}
	if count != want {
		t.Fatalf("sweep found %d, nested loop %d", count, want)
	}
}
