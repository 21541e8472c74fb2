package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialhadoop/internal/geom"
)

// byPoint is the point cell order the radix sort must reproduce: record
// indices by their points, (X, then Y) as cmp.Compare orders them (NaN
// first), ties by index.
func byPoint(pts []geom.Point) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(pts[a].X, pts[b].X); c != 0 {
			return c
		}
		if c := cmp.Compare(pts[a].Y, pts[b].Y); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// byMinX is the region cell order: record indices by their MBRs' MinX,
// ties by index.
func byMinX(bounds []geom.Rect) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(bounds[a].MinX, bounds[b].MinX); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// specials are the coordinates a float order gets wrong: NaNs of both
// signs, quiet and signalling, with several payloads; ±0; ±Inf;
// subnormals; the extremes of the normals.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0xFFF8000000000000),
	math.Float64frombits(0x7FF0000000000001),
	math.Float64frombits(0xFFF0000000000001),
	math.Float64frombits(0x7FF4000000000000),
	math.Float64frombits(0x7FFFFFFFFFFFFFFF),
	math.Float64frombits(0xFFFFFFFFFFFFFFFF),
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF),
	0x1p-1022, -0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64,
}

// checkLoadOrder sorts cell (record indices in input order) the way the
// loaders do, as points and as regions with those points' X as MinX, and
// fails unless each order equals slices.SortFunc with the oracle. sb is
// reused from call to call, as a loader goroutine reuses it.
func checkLoadOrder(t *testing.T, pts []geom.Point, cell []int32, sb *sortBufs) {
	t.Helper()
	want := slices.Clone(cell)
	slices.SortFunc(want, byPoint(pts))
	got := slices.Clone(cell)
	sortPointCell(got, pts, sb)
	if !slices.Equal(got, want) {
		t.Fatalf("point order %v, want %v (points %v)", got, want, pts)
	}
	bounds := make([]geom.Rect, len(pts))
	for i, p := range pts {
		bounds[i] = geom.Rect{MinX: p.X}
	}
	want = slices.Clone(cell)
	slices.SortFunc(want, byMinX(bounds))
	got = slices.Clone(cell)
	sortRegionCell(got, bounds, sb)
	if !slices.Equal(got, want) {
		t.Fatalf("region order %v, want %v (MinX %v)", got, want, pts)
	}
}

// checkCells runs checkLoadOrder on every record of pts and on every
// other one.
func checkCells(t *testing.T, pts []geom.Point, sb *sortBufs) {
	t.Helper()
	var all, odd []int32
	for i := range pts {
		all = append(all, int32(i))
		if i%2 == 1 {
			odd = append(odd, int32(i))
		}
	}
	checkLoadOrder(t, pts, all, sb)
	checkLoadOrder(t, pts, odd, sb)
}

// TestLoadOrderMatchesSortFunc: the loaders' radix order equals
// slices.SortFunc with byPoint and byMinX on special coordinates,
// duplicates, all-equal keys (every byte pass skipped), one-element and
// empty cells, and larger clustered and random-bit cells.
func TestLoadOrderMatchesSortFunc(t *testing.T) {
	var sb sortBufs
	var pairs []geom.Point
	for _, x := range specials {
		for _, y := range specials {
			pairs = append(pairs, geom.Pt(x, y))
		}
	}
	rng := rand.New(rand.NewSource(1))
	shuffled := slices.Clone(pairs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	checkCells(t, append(pairs, shuffled...), &sb)

	equal := make([]geom.Point, 300)
	for i := range equal {
		equal[i] = geom.Pt(7.25, -3)
	}
	checkCells(t, equal, &sb)
	nans := make([]geom.Point, 50)
	for i := range nans {
		nans[i] = geom.Pt(specials[i%7], specials[(i/7)%7])
	}
	checkCells(t, nans, &sb)
	checkCells(t, []geom.Point{geom.Pt(math.NaN(), 1)}, &sb)
	checkCells(t, []geom.Point{geom.Pt(1, 2), geom.Pt(math.Copysign(0, -1), 2)}, &sb)
	checkCells(t, nil, &sb)

	clustered := orderPoints(5000, 13, true)
	checkCells(t, clustered, &sb)
	bits := make([]geom.Point, 3000)
	for i := range bits {
		bits[i] = geom.Pt(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
		if i%5 == 0 {
			bits[i] = bits[rng.Intn(i+1)]
		}
	}
	checkCells(t, bits, &sb)
}

// fuzzPoints reads data as coordinates, two to a point: a byte below
// len(specials) is that special value, one below 128 the small integer
// byte-64 (so coordinates repeat and keys share bytes), and any other
// byte is followed by the coordinate's raw IEEE-754 bits, eight bytes
// little-endian (zero-padded at the end of data).
func fuzzPoints(data []byte) []geom.Point {
	var fs []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		switch {
		case int(b) < len(specials):
			fs = append(fs, specials[b])
		case b < 128:
			fs = append(fs, float64(int(b)-64))
		default:
			var raw [8]byte
			data = data[copy(raw[:], data):]
			fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
		}
	}
	pts := make([]geom.Point, len(fs)/2)
	for i := range pts {
		pts[i] = geom.Pt(fs[2*i], fs[2*i+1])
	}
	return pts
}

// FuzzLoadOrder: for any coordinates, the loaders' radix order equals
// slices.SortFunc with byPoint and byMinX, and the keys compare as
// cmp.Compare does.
func FuzzLoadOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 0})
	f.Add([]byte{70, 70, 70, 70, 70, 70, 70, 70})
	f.Add([]byte{7, 8, 8, 7, 7, 7, 8, 8, 64, 7, 64, 8, 0, 1, 1, 0})
	f.Add([]byte{200, 1, 2, 3, 4, 5, 6, 7, 8, 65, 255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 65})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		var sb sortBufs
		checkCells(t, pts, &sb)
		for _, p := range pts {
			if got, want := cmp.Compare(floatKey(p.X), floatKey(p.Y)), cmp.Compare(p.X, p.Y); got != want {
				t.Fatalf("keys of %v and %v compare %d, cmp.Compare says %d", p.X, p.Y, got, want)
			}
		}
	})
}
