package geomio

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// One shortest-decimal kernel spells every coordinate. shortest finds the
// decimal digits·10^exp with the fewest digits that reads back as f, the
// one nearest f when several are that short — exactly the digits
// strconv.AppendFloat(_, f, _, -1, 64) prints. Its callers lay those
// digits out as integers: AppendPoint's 'g' text, PointLen's length of it
// without writing a byte, and AppendJSONFloat's encoding/json number. The
// kernel takes normal floats only; ±0, subnormals, NaN and ±Inf, which no
// generated coordinate is, go through strconv itself.
//
// The kernel is Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): with f = c·2^q, it scales the rounding interval's
// bounds and f by 10^-k, for k = ⌊log10 2^q⌋, through one 126-bit
// approximation of 10^-k each, rounded to odd. At that scale the interval
// holds one or two integers s, s+1, and at most one multiple of ten; the
// multiple of ten, when it is inside, is the shortest, and otherwise the
// nearer of s and s+1 inside is, ties to even.

// kMin and kMax bound k = ⌊log10 2^q⌋ over the normal exponents
// q ∈ [-1074, 971].
const (
	kMin = -324
	kMax = 292
)

// pow10s holds, for each k in [kMin, kMax], g = ⌊10^-k·2^-r⌋ + 1, r the
// exponent that puts 10^-k·2^-r in [2^125, 2^126), split into its high and
// low 63 bits. It is computed once, exactly, with math/big.
var pow10s [kMax - kMin + 1][2]uint64

func init() {
	one, ten := big.NewInt(1), big.NewInt(10)
	low := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	p := new(big.Int).Exp(ten, big.NewInt(-kMin), nil) // 10^|k|
	var g, hi, lo big.Int
	for k := kMin; k <= kMax; k++ {
		shift := 125 - flog2pow10(-k) // 10^-k·2^shift ∈ [2^125, 2^126)
		switch {
		case k > 0:
			g.Quo(g.Lsh(one, uint(shift)), p)
		case shift >= 0:
			g.Lsh(p, uint(shift))
		default:
			g.Rsh(p, uint(-shift))
		}
		g.Add(&g, one)
		pow10s[k-kMin] = [2]uint64{hi.Rsh(&g, 63).Uint64(), lo.And(&g, low).Uint64()}
		if k < 0 {
			p.Quo(p, ten)
		} else {
			p.Mul(p, ten)
		}
	}
}

// flog10pow2 is ⌊q·log10 2⌋, flog10threeQuartersPow2 is ⌊log10(¾·2^q)⌋
// and flog2pow10 is ⌊e·log2 10⌋, each exact over the exponents used here.
func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// rop is cp·g·2^-127 rounded to odd, g = g1·2^63 + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	return (y1 + z>>63) | ((z&mask63)+mask63)>>63
}

// inKernel reports whether shortest takes f: normal and finite.
func inKernel(f float64) bool {
	be := math.Float64bits(f) >> 52 & 0x7ff
	return be != 0 && be != 0x7ff
}

// shortest returns |f| as digits·10^exp, digits the shortest that reads
// back as f with no trailing zeros. f must be normal (inKernel).
func shortest(f float64) (digits uint64, exp int) {
	b := math.Float64bits(f)
	c := 1<<52 | b&(1<<52-1)
	mq := 1075 - int(b>>52&0x7ff) // f = c·2^-mq
	if 0 < mq && mq < 53 && c&(1<<mq-1) == 0 {
		return trimZeros(c>>mq, 0) // an integer below 2^53 is its own digits
	}
	q := -mq
	out := c & 1 // an odd c's interval is open
	cb := c << 2
	cbr := cb + 2
	cbl, k := cb-2, flog10pow2(q)
	if c == 1<<52 && q > -1074 {
		// A power of two's lower neighbour is half as far.
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10s[k-kMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	s10 := s / 10 // the multiples of ten around v are 10·s10 and 10·(s10+1)
	if upin, wpin := vbl+out <= s10*40, (s10+1)*40+out <= vbr; upin != wpin {
		if upin {
			return trimZeros(s10, k+1)
		}
		return trimZeros(s10+1, k+1)
	}
	t := s + 1
	if uin, win := vbl+out <= s<<2, t<<2+out <= vbr; uin != win {
		if uin {
			return trimZeros(s, k)
		}
		return trimZeros(t, k)
	}
	if cmp := int64(vb) - int64(s+t)<<1; cmp < 0 || cmp == 0 && s&1 == 0 {
		return trimZeros(s, k)
	}
	return trimZeros(t, k)
}

// trimZeros drops d's trailing decimal zeros into exp; d is not 0.
func trimZeros(d uint64, exp int) (uint64, int) {
	if d%10 != 0 {
		return d, exp // most coordinates: seventeen digits, no zeros
	}
	d, exp = d/10, exp+1
	for d%1e8 == 0 {
		d, exp = d/1e8, exp+8
	}
	if d%1e4 == 0 {
		d, exp = d/1e4, exp+4
	}
	if d%100 == 0 {
		d, exp = d/100, exp+2
	}
	if d%10 == 0 {
		d, exp = d/10, exp+1
	}
	return d, exp
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// numDigits is the count of d's decimal digits; d is not 0.
func numDigits(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^len⌋
	if d < pow10[n] {
		return n
	}
	return n + 1
}

const (
	digitPairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
		"30313233343536373839" + "40414243444546474849" + "50515253545556575859" +
		"60616263646566676869" + "70717273747576777879" + "80818283848586878889" +
		"90919293949596979899"
	zeros = "00000000000000000000000000000000" // the longest spelling, 25 bytes, fits
)

// decimal is a kernel result laid out: its sign, its n digits and the
// position of the decimal point, dp, in 0.digits·10^dp.
type decimal struct {
	neg   bool
	d     uint64
	n, dp int
}

// decimalOf runs the kernel on f, which must be normal (inKernel).
func decimalOf(f float64) decimal {
	d, e := shortest(f)
	n := numDigits(d)
	return decimal{neg: f < 0, d: d, n: n, dp: n + e}
}

// gSci reports whether 'g' spells x in scientific notation: a decimal
// exponent below -4 or at least 6, as strconv does for precision -1.
func (x decimal) gSci() bool { return x.dp < -3 || x.dp > 6 }

// appendTo appends x in fixed notation, or in scientific notation with an
// exponent of at least minExp digits. It appends x.size '0's and writes
// the rest over them: the padding zeros are already in place.
func (x decimal) appendTo(dst []byte, sci bool, minExp int) []byte {
	n := x.size(sci, minExp)
	dst = append(dst, zeros[:n]...)
	b := dst[len(dst)-n:]
	if x.neg {
		b[0], b = '-', b[1:]
	}
	switch {
	case sci:
		at := 1
		if x.n > 1 { // d.ddd: the digits one place right, then the first moved back
			at = x.n + 1
			putDigits(b[:at], x.d)
			b[0], b[1] = b[1], '.'
		} else {
			b[0] += byte(x.d)
		}
		e, sign := x.dp-1, byte('+')
		if e < 0 {
			e, sign = -e, '-'
		}
		b[at], b[at+1] = 'e', sign
		putDigits(b[at+2:], uint64(e))
	case x.dp <= 0: // 0.000ddd
		b[1] = '.'
		putDigits(b, x.d)
	case x.dp >= x.n: // ddd000
		putDigits(b[:x.n], x.d)
	default: // dd.ddd
		putDigits(b[:x.n+1], x.d)
		copy(b, b[1:x.dp+1])
		b[x.dp] = '.'
	}
	return dst
}

// putDigits writes d's decimal digits at the end of b, eight at a time as
// four independent pairs.
func putDigits(b []byte, d uint64) {
	i := len(b)
	for ; d >= 1e8; i -= 8 {
		q := d / 1e8
		r := uint32(d - q*1e8)
		hi, lo := r/1e4, r%1e4
		put2(b[i-8:], hi/100)
		put2(b[i-6:], hi%100)
		put2(b[i-4:], lo/100)
		put2(b[i-2:], lo%100)
		d = q
	}
	r := uint32(d)
	for ; r >= 10; r /= 100 {
		i -= 2
		put2(b[i:], r%100)
	}
	if r > 0 {
		b[i-1] = byte('0' + r)
	}
}

// put2 writes the two digits of r < 100.
func put2(b []byte, r uint32) { b[0], b[1] = digitPairs[2*r], digitPairs[2*r+1] }

// size is len(x.appendTo(nil, sci, minExp)).
func (x decimal) size(sci bool, minExp int) int {
	n := x.n
	if x.neg {
		n++
	}
	switch {
	case sci:
		if x.n > 1 {
			n++ // the point
		}
		e := max(x.dp-1, 1-x.dp) // not 0: both notations pick fixed at 10^0
		return n + 2 + max(minExp, numDigits(uint64(e)))
	case x.dp <= 0:
		return n + 2 - x.dp
	case x.dp >= x.n:
		return x.dp + n - x.n
	default:
		return n + 1
	}
}

// appendG appends f as strconv.AppendFloat(dst, f, 'g', -1, 64) does.
func appendG(dst []byte, f float64) []byte {
	if !inKernel(f) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	x := decimalOf(f)
	return x.appendTo(dst, x.gSci(), 2)
}

// gLen is len(appendG(nil, f)).
func gLen(f float64) int {
	if !inKernel(f) {
		var buf [24]byte
		return len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
	}
	x := decimalOf(f)
	return x.size(x.gSci(), 2)
}

// AppendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' format except for very large or very
// small magnitudes, with the exponent's leading zero stripped. Both the
// serving layer's response encoders and the pinned points' first-use
// response objects rely on this producing encoding/json's
// bytes; the equivalence is pinned by a differential test.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if inKernel(f) {
		abs := math.Abs(f)
		return decimalOf(f).appendTo(b, abs < 1e-6 || abs >= 1e21, 1), nil
	}
	switch {
	case math.IsInf(f, 0) || math.IsNaN(f):
		return nil, fmt.Errorf("json: unsupported value: %v", f)
	case f == 0:
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	default: // a subnormal, whose three-digit exponent leaves nothing to trim
		return strconv.AppendFloat(b, f, 'e', -1, 64), nil
	}
}
