package geomio

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"spatialhadoop/internal/geom"
)

func TestPointRoundTrip(t *testing.T) {
	check := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p := geom.Point{X: x, Y: y}
		got, err := DecodePoint(EncodePoint(p))
		return err == nil && got == p
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPointDecodeErrors(t *testing.T) {
	for _, bad := range []string{"", "1", "a,b", "1,", ",2", "1,2,3x"} {
		if _, err := DecodePoint(bad); err == nil && bad != "1,2,3x" {
			t.Errorf("DecodePoint(%q): expected error", bad)
		}
	}
	if _, err := DecodePoint("1;2"); err == nil {
		t.Error("expected error for wrong separator")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	s := geom.Seg(geom.Pt(1.5, -2.25), geom.Pt(1e-17, 9e99))
	got, err := DecodeSegment(EncodeSegment(s))
	if err != nil || got != s {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := DecodeSegment("1,2"); err == nil {
		t.Error("expected error for missing second point")
	}
}

func TestRegionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var rg geom.Region
		for r := 0; r <= rng.Intn(3); r++ {
			ring := geom.Polygon{}
			for v := 0; v < 3+rng.Intn(5); v++ {
				ring.Vertices = append(ring.Vertices, geom.Pt(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3))
			}
			rg.Rings = append(rg.Rings, ring)
		}
		got, err := DecodeRegion(EncodeRegion(rg))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rings) != len(rg.Rings) {
			t.Fatalf("rings = %d, want %d", len(got.Rings), len(rg.Rings))
		}
		for i := range rg.Rings {
			if len(got.Rings[i].Vertices) != len(rg.Rings[i].Vertices) {
				t.Fatal("vertex count mismatch")
			}
			for j := range rg.Rings[i].Vertices {
				if got.Rings[i].Vertices[j] != rg.Rings[i].Vertices[j] {
					t.Fatal("vertex mismatch")
				}
			}
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	got, err := DecodeRegion("")
	if err != nil || len(got.Rings) != 0 {
		t.Fatalf("empty region: %v, %v", got, err)
	}
}

func TestRectRoundTrip(t *testing.T) {
	r := geom.NewRect(-1.25, 2.5, 1e10, 1e-10)
	got, err := DecodeRect(EncodeRect(r))
	if err != nil || got != r {
		t.Fatalf("got %v, %v", got, err)
	}
	// Infinities survive (empty rect sentinel).
	e := geom.EmptyRect()
	got, err = DecodeRect(EncodeRect(e))
	if err != nil || !got.IsEmpty() {
		t.Fatalf("empty rect: %v, %v", got, err)
	}
}

func TestBatchHelpers(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	recs := EncodePoints(pts)
	got, err := DecodePoints(recs)
	if err != nil || len(got) != 2 || got[0] != pts[0] || got[1] != pts[1] {
		t.Fatalf("points: %v, %v", got, err)
	}
	segs := []geom.Segment{geom.Seg(pts[0], pts[1])}
	sgot, err := DecodeSegments(EncodeSegments(segs))
	if err != nil || len(sgot) != 1 || sgot[0] != segs[0] {
		t.Fatalf("segments: %v, %v", sgot, err)
	}
	if _, err := DecodePoints([]string{"bad"}); err == nil {
		t.Error("expected batch decode error")
	}
}

func TestPolygonRoundTrip(t *testing.T) {
	pg := geom.Poly(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))
	got, err := DecodePolygon(EncodePolygon(pg))
	if err != nil || got.Len() != 3 {
		t.Fatalf("polygon: %v, %v", got, err)
	}
	if _, err := DecodePolygon(""); err == nil {
		t.Error("expected error for empty polygon")
	}
}

// encoded keeps the compiler from dropping a measured EncodePoint call.
var encoded string

// TestAppendPointMatchesFormatFloat pins the one-allocation encoders to
// the definition they replaced — FormatFloat('g', -1) per coordinate,
// joined — on every kind of float64 a record can hold.
func TestAppendPointMatchesFormatFloat(t *testing.T) {
	ff := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
		math.MaxFloat64, -math.MaxFloat64, // the 24-byte forms
		1e21, 1e20, 1e-7, 1e-4, 1e-5, -1e21, // where 'g' switches to an exponent
		0.1, 1.0 / 3, 123456.789, 0.30000000000000004,
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 10000; i++ {
		switch i % 3 {
		case 0:
			vals = append(vals, rng.Float64()*1e6)
		case 1:
			vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		default:
			vals = append(vals, math.Float64frombits(rng.Uint64()))
		}
	}
	for i, x := range vals {
		y := vals[(i*7+3)%len(vals)]
		p := geom.Point{X: x, Y: y}
		want := ff(x) + "," + ff(y)
		if got := EncodePoint(p); got != want {
			t.Fatalf("EncodePoint(%v) = %q, want %q", p, got, want)
		}
		if got := string(AppendPoint([]byte("pre "), p)); got != "pre "+want {
			t.Fatalf("AppendPoint(%v) = %q, want %q", p, got, "pre "+want)
		}
		if len(want) > MaxPointLen {
			t.Fatalf("%q is %d bytes, MaxPointLen is %d", want, len(want), MaxPointLen)
		}
		r := geom.Rect{MinX: x, MinY: y, MaxX: y, MaxY: x}
		if got, want := EncodeRect(r), ff(x)+","+ff(y)+","+ff(y)+","+ff(x); got != want {
			t.Fatalf("EncodeRect(%v) = %q, want %q", r, got, want)
		}
	}
	// A region is its vertices' points joined by ' ' within a ring and '|'
	// between rings, empty rings included.
	rg := geom.Region{Rings: []geom.Polygon{
		{Vertices: []geom.Point{{X: vals[0], Y: vals[1]}, {X: vals[2], Y: vals[5]}, {X: 1e21, Y: 1e-7}}},
		{},
		{Vertices: []geom.Point{{X: 0.1, Y: -2.5}}},
	}}
	want := ff(vals[0]) + "," + ff(vals[1]) + " " + ff(vals[2]) + "," + ff(vals[5]) + " 1e+21,1e-07||0.1,-2.5"
	if got := EncodeRegion(rg); got != want {
		t.Fatalf("EncodeRegion = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { encoded = EncodePoint(geom.Point{X: 123456.789, Y: -0.30000000000000004}) }); allocs != 1 {
		t.Errorf("EncodePoint allocates %v times per call, want 1", allocs)
	}
}
