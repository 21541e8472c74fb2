package geomio

import (
	"math"
	"testing"
)

// FuzzDecodePoint checks the decoder never panics and that successful
// decodes re-encode losslessly.
func FuzzDecodePoint(f *testing.F) {
	f.Add("1,2")
	f.Add("-1.5e300,0.25")
	f.Add("")
	f.Add(",")
	f.Add("nan,inf")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := DecodePoint(s)
		if err != nil {
			return
		}
		got, err := DecodePoint(EncodePoint(p))
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", s, err)
		}
		// NaN breaks equality; everything else must round trip.
		if p == p && got != p {
			t.Fatalf("round trip of %q: %v != %v", s, got, p)
		}
	})
}

// FuzzDecodeRegion checks the region decoder never panics and round trips.
func FuzzDecodeRegion(f *testing.F) {
	f.Add("1,2 3,4 5,6")
	f.Add("1,2 3,4|5,6 7,8 9,10")
	f.Add("|||")
	f.Add("x")
	f.Fuzz(func(t *testing.T, s string) {
		rg, err := DecodeRegion(s)
		if err != nil {
			return
		}
		rg2, err := DecodeRegion(EncodeRegion(rg))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(rg2.Rings) != len(rg.Rings) {
			t.Fatalf("ring count changed: %d -> %d", len(rg.Rings), len(rg2.Rings))
		}
	})
}

// FuzzDecodeSegment checks the segment decoder never panics.
func FuzzDecodeSegment(f *testing.F) {
	f.Add("1,2 3,4")
	f.Add(" ")
	f.Add("1,2")
	f.Fuzz(func(t *testing.T, s string) {
		seg, err := DecodeSegment(s)
		if err != nil {
			return
		}
		if _, err := DecodeSegment(EncodeSegment(seg)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzFloatSpellings compares every spelling of a float64's raw bits —
// AppendPoint's text, PointLen and AppendJSONFloat — with strconv's.
func FuzzFloatSpellings(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-5, 1e-4, 999999.9999999999, 1e6, 1e21, 1e-7,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		0x1p-1022, math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	var sp spellings
	f.Fuzz(func(t *testing.T, bits uint64) {
		sp.check(t, math.Float64frombits(bits))
	})
}
