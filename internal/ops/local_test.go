package ops

import (
	"fmt"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// testSource is a LocalSource pinning on demand with no budget: what the
// serving layer's memory tier does, minus eviction.
type testSource struct {
	sf   *sindex.SFilter
	pins map[string]*LocalPartition
}

func (s *testSource) Pin(sp *mapreduce.Split) (*LocalPartition, error) {
	if p, ok := s.pins[sp.Partition]; ok {
		return p, nil
	}
	p, err := PinSplit(sp)
	if err != nil {
		return nil, err
	}
	if s.pins == nil {
		s.pins = map[string]*LocalPartition{}
	}
	s.pins[sp.Partition] = p
	// Refine the bitmap exactly as the memory tier does on pin.
	if s.sf != nil {
		s.sf.Refine(p.Key, p.Pts)
	}
	return p, nil
}

func (s *testSource) Filter() *sindex.SFilter { return s.sf }

var localTechniques = []sindex.Technique{
	sindex.Grid, sindex.STR, sindex.STRPlus, sindex.QuadTree,
	sindex.KDTree, sindex.ZCurve, sindex.Hilbert,
}

// localPoints builds a point set with heavy duplication so kNN tie-breaks
// are genuinely exercised: every third point repeats an earlier one.
func localPoints(n int, area geom.Rect, seed int64) []geom.Point {
	pts := datagen.Points(datagen.Clustered, n, area, seed)
	for i := 2; i < len(pts); i += 3 {
		pts[i] = pts[i-2]
	}
	return pts
}

// TestLocalRangeMatchesMapReduce: the local engine and the MapReduce job
// must return the same multiset of points for every technique and query.
func TestLocalRangeMatchesMapReduce(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := localPoints(3000, area, 11)
	queries := []geom.Rect{
		geom.NewRect(0, 0, 1000, 1000),
		geom.NewRect(100, 100, 320, 260),
		geom.NewRect(900, 900, 950, 950),
		geom.NewRect(-60, -60, -10, -10),
		geom.NewRect(499.5, 499.5, 500.5, 500.5),
	}
	for _, tech := range localTechniques {
		sys := newSys()
		f, err := sys.LoadPoints("pts", pts, tech)
		if err != nil {
			t.Fatal(err)
		}
		src := &testSource{sf: sindex.NewSFilter(f.Index, 0)}
		for qi, q := range queries {
			want, _, err := RangeQueryPointsTo(sys, "pts", q, fmt.Sprintf("pts.rq.%d", qi))
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := localRangePoints(sys, "pts", src, q)
			if err != nil {
				t.Fatal(err)
			}
			if !samePointSet(got, want) {
				t.Fatalf("%v q=%v: local %d points != mapreduce %d points", tech, q, len(got), len(want))
			}
			if stats.PartitionsConsulted+stats.PartitionsPruned != stats.PartitionsTotal {
				t.Fatalf("%v: stats don't partition the splits: %+v", tech, stats)
			}
		}
		// Repeat after all partitions are pinned (bitmaps now exact).
		for qi, q := range queries {
			want, _, err := RangeQueryPointsTo(sys, "pts", q, fmt.Sprintf("pts.rq2.%d", qi))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := localRangePoints(sys, "pts", src, q)
			if err != nil {
				t.Fatal(err)
			}
			if !samePointSet(got, want) {
				t.Fatalf("%v q=%v refined: local != mapreduce", tech, q)
			}
		}
	}
}

func localRangePoints(sys *core.System, file string, src LocalSource, q geom.Rect) ([]geom.Point, *LocalStats, error) {
	matches, stats, err := LocalRangeMatches(sys, file, src, q)
	var pts []geom.Point
	for _, m := range matches {
		for _, id := range m.IDs {
			pts = append(pts, m.Part.Pts[id])
		}
	}
	return pts, stats, err
}

func samePointSet(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, p := range a {
		count[pointKey(p)]++
	}
	for _, p := range b {
		count[pointKey(p)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestLocalKNNMatchesMapReduce: both engines must pick the exact same k
// points — in the same order — including under distance ties from
// duplicated coordinates, for every technique.
func TestLocalKNNMatchesMapReduce(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := localPoints(1500, area, 23)
	sites := []geom.Point{
		geom.Pt(500, 500), geom.Pt(0, 0), geom.Pt(999, 1), geom.Pt(250, 760),
		pts[4], // exactly on a (duplicated) record
	}
	ks := []int{0, 1, 3, 17, len(pts), len(pts) + 9}
	for _, tech := range localTechniques {
		sys := newSys()
		f, err := sys.LoadPoints("pts", pts, tech)
		if err != nil {
			t.Fatal(err)
		}
		src := &testSource{sf: sindex.NewSFilter(f.Index, 0)}
		for si, q := range sites {
			for _, k := range ks {
				want, _, err := KNNTo(sys, "pts", q, k, fmt.Sprintf("pts.knn.%d.%d", si, k))
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := LocalKNNPoints(sys, "pts", src, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v q=%v k=%d: local %d results, mapreduce %d", tech, q, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v q=%v k=%d: result %d = %v, want %v", tech, q, k, i, got[i], want[i])
					}
				}
				if stats.Rounds < 1 || stats.Rounds > 2 {
					t.Fatalf("%v: rounds = %d", tech, stats.Rounds)
				}
			}
		}
	}
}

// TestLocalHeapRejected: heap files have no partitions to pin; the local
// executors must refuse them so the planner's indexed-only gate is backed
// by a hard error, not silent wrong answers.
func TestLocalHeapRejected(t *testing.T) {
	sys := newSys()
	if err := sys.LoadPointsHeap("heap", datagen.Points(datagen.Uniform, 100, geom.NewRect(0, 0, 10, 10), 1)); err != nil {
		t.Fatal(err)
	}
	src := &testSource{}
	if _, _, err := LocalRangeMatches(sys, "heap", src, geom.NewRect(0, 0, 5, 5)); err == nil {
		t.Fatal("local range over a heap file must error")
	}
	if _, _, err := LocalKNNPoints(sys, "heap", src, geom.Pt(1, 1), 3); err == nil {
		t.Fatal("local knn over a heap file must error")
	}
}
