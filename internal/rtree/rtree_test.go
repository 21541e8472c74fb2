package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spatialhadoop/internal/geom"
)

func randEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		es[i] = Entry{
			MBR: geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10),
			ID:  i,
		}
	}
	return es
}

func linearSearch(es []Entry, q geom.Rect) []int {
	var out []int
	for _, e := range es {
		if e.MBR.Intersects(q) {
			out = append(out, e.ID)
		}
	}
	return out
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 100, 2000} {
		es := randEntries(rng, n)
		tr := Bulk(es, 8)
		if tr.Len() != n {
			t.Fatalf("len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 30; q++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			query := geom.NewRect(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
			got := tr.Search(query, nil)
			want := linearSearch(es, query)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d results, want %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d: result %d = %d, want %d", n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	tr := BulkPoints(pts, 8)
	for q := 0; q < 20; q++ {
		query := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(10)
		got := tr.Nearest(query, k)
		if len(got) != k {
			t.Fatalf("got %d neighbours, want %d", len(got), k)
		}
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = p.Dist(query)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if diff := nb.Dist - dists[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("neighbour %d dist %g, want %g", i, nb.Dist, dists[i])
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				t.Fatal("neighbours not in increasing order")
			}
		}
	}
}

func TestNearestMoreThanAvailable(t *testing.T) {
	tr := BulkPoints([]geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, 4)
	got := tr.Nearest(geom.Pt(0, 0), 10)
	if len(got) != 2 {
		t.Fatalf("got %d, want 2", len(got))
	}
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk(nil, 4)
	if got := tr.Search(geom.NewRect(0, 0, 1, 1), nil); got != nil {
		t.Errorf("search on empty = %v", got)
	}
	if got := tr.Nearest(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("nearest on empty = %v", got)
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("bounds of empty tree should be empty")
	}
}

func TestVisitEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := randEntries(rng, 300)
	tr := Bulk(es, 8)
	count := 0
	tr.Visit(geom.NewRect(0, 0, 1000, 1000), func(Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d, want early stop at 5", count)
	}
}

// TestNearestWithTiesCompleteness: the tie-complete candidate set must hold
// exactly every point whose distance is <= the k-th smallest distance — no
// matter how ties were packed into leaves. A grid of duplicated coordinates
// manufactures large tie groups straddling node boundaries.
func TestNearestWithTiesCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for dup := 0; dup < 3; dup++ {
				pts = append(pts, geom.Pt(float64(x), float64(y)))
			}
		}
	}
	for _, fanout := range []int{2, 4, 16} {
		tr := BulkPoints(pts, fanout)
		for q := 0; q < 40; q++ {
			query := geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
			k := 1 + rng.Intn(len(pts)+4)
			got := tr.NearestWithTies(query, k)
			dists := make([]float64, len(pts))
			for i, p := range pts {
				dists[i] = p.Dist(query)
			}
			sort.Float64s(dists)
			kth := dists[len(dists)-1]
			if k <= len(dists) {
				kth = dists[k-1]
			}
			want := 0
			for _, d := range dists {
				if d <= kth {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("fanout=%d k=%d: got %d candidates, want %d (kth=%g)", fanout, k, len(got), want, kth)
			}
			for i, nb := range got {
				if nb.Dist > kth+1e-12 {
					t.Fatalf("candidate %d dist %g beyond kth %g", i, nb.Dist, kth)
				}
				if i > 0 && nb.Dist < got[i-1].Dist {
					t.Fatal("candidates not in nondecreasing order")
				}
			}
		}
	}
	if got := BulkPoints(pts, 4).NearestWithTies(geom.Pt(0, 0), 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	var empty Tree
	if got := empty.NearestWithTies(geom.Pt(0, 0), 3); got != nil {
		t.Fatal("empty tree must return nil")
	}
}

// TestNaNEntryDoesNotHideSiblings: geomio.DecodePoint accepts "NaN", so a
// block can hold a point no query can match. It must stay a non-match of
// its own; it must not poison its leaf, every ancestor and the root MBR
// and so hide the finite points stored beside it.
func TestNaNEntryDoesNotHideSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	nan := math.NaN()
	pts[17] = geom.Point{X: nan, Y: 50}
	pts[170] = geom.Point{X: 50, Y: nan}
	pts[299] = geom.Point{X: nan, Y: nan}
	tr := BulkPoints(pts, 8)
	if b := tr.Bounds(); b.MinX != b.MinX || b.MinY != b.MinY || b.MaxX != b.MaxX || b.MaxY != b.MaxY {
		t.Fatalf("root MBR %v carries a NaN", b)
	}
	for _, query := range []geom.Rect{geom.NewRect(20, 20, 70, 70), geom.NewRect(0, 0, 100, 100), geom.WorldRect()} {
		var want []int
		for i, p := range pts {
			if query.ContainsPoint(p) {
				want = append(want, i)
			}
		}
		got := tr.Search(query, nil)
		sort.Ints(got)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %v: index found %d entries, a linear scan %d", query, len(got), len(want))
		}
		visited := 0
		tr.Visit(query, func(Entry) bool { visited++; return true })
		if visited != len(want) {
			t.Fatalf("query %v: Visit saw %d entries, want %d", query, visited, len(want))
		}
	}
}
