package geomio

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"spatialhadoop/internal/geom"
)

// appendJSONOracle is encoding/json's float64 spelling, as its encoder
// writes it with strconv: 'f' but for magnitudes below 1e-6 or from 1e21
// up, which take 'e' with a negative exponent's leading zero dropped.
func appendJSONOracle(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1])
	}
	return b
}

// spellings holds the buffers check reuses, so a sweep allocates nothing.
type spellings struct{ want, got []byte }

// check compares f's three spellings — AppendPoint's text, PointLen and
// AppendJSONFloat — byte for byte with strconv's, on the point (f, f).
// It calls no t.Helper, which would cost a stack walk per value.
func (sp *spellings) check(t testing.TB, f float64) {
	p := geom.Point{X: f, Y: f}
	sp.want = strconv.AppendFloat(sp.want[:0], f, 'g', -1, 64)
	sp.want = append(sp.want, ',')
	sp.want = append(sp.want, sp.want[:len(sp.want)-1]...)
	if sp.got = AppendPoint(sp.got[:0], p); !bytes.Equal(sp.got, sp.want) {
		t.Fatalf("bits %#x: AppendPoint = %q, strconv %q", math.Float64bits(f), sp.got, sp.want)
	}
	if n := PointLen(p); n != len(sp.want) {
		t.Fatalf("bits %#x: PointLen = %d, len(%q) = %d", math.Float64bits(f), n, sp.want, len(sp.want))
	}
	var err error
	sp.got, err = AppendJSONFloat(sp.got[:0], f)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if err == nil {
			t.Fatalf("AppendJSONFloat(%v) = %q, want an error", f, sp.got)
		}
		return
	}
	if sp.want = appendJSONOracle(sp.want[:0], f); err != nil || !bytes.Equal(sp.got, sp.want) {
		t.Fatalf("bits %#x: AppendJSONFloat = %q, %v; strconv %q", math.Float64bits(f), sp.got, err, sp.want)
	}
}

// TestSpellingsAtPowers sweeps every power of two and every power of ten
// a float64 holds, each with its one-ulp neighbours, both signs: where
// the kernel's interval is lopsided (a power of two), where a shorter
// decimal sits on the interval's edge (a power of ten), and where the
// layouts switch notation.
func TestSpellingsAtPowers(t *testing.T) {
	var sp spellings
	check := func(f float64) {
		for _, v := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			sp.check(t, v)
			sp.check(t, -v)
		}
	}
	for e := -1074; e <= 1023; e++ {
		check(math.Ldexp(1, e))
	}
	for k := -323; k <= 308; k++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			t.Fatal(err)
		}
		check(f)
	}
	for _, f := range []float64{0, math.Inf(1), math.NaN(), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1022, 999999.9999999999, 123456.7} {
		check(f)
	}
}

// randomBits is how many random bit patterns TestSpellingsRandomBits
// spells: ten million, a tenth under the race detector (race_test.go).
var randomBits = 10_000_000

// TestSpellingsRandomBits compares the spellings of randomBits seeded
// random bit patterns, and of a million one-decimal lattice coordinates,
// the kind the generators write.
func TestSpellingsRandomBits(t *testing.T) {
	if testing.Short() {
		t.Skip("ten million values")
	}
	rng := rand.New(rand.NewSource(37))
	var sp spellings
	for i := 0; i < randomBits; i++ {
		sp.check(t, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 1_000_000; i++ {
		sp.check(t, math.Round(rng.Float64()*1e7)/10)
	}
}

// benchSink keeps the compiler from dropping a measured call.
var benchSink int

// BenchmarkSpellings prices each spelling of a coordinate against the
// strconv call it replaced, on uniform coordinates of [0, 1e6) as the
// generators draw them. DESIGN.md quotes these.
func BenchmarkSpellings(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	var buf [32]byte
	for _, bm := range []struct {
		name string
		do   func(f float64) int
	}{
		{"len/kernel", func(f float64) int { return gLen(f) }}, // strconv's is g/strconv
		{"g/kernel", func(f float64) int { return len(appendG(buf[:0], f)) }},
		{"g/strconv", func(f float64) int { return len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) }},
		{"json/kernel", func(f float64) int { b, _ := AppendJSONFloat(buf[:0], f); return len(b) }},
		{"json/strconv", func(f float64) int { return len(appendJSONOracle(buf[:0], f)) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += bm.do(vals[i%len(vals)])
			}
		})
	}
}
