package wirefmt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spatialhadoop/internal/geom"
)

// roundTrip encodes v through run, decodes the bytes into into through run
// again, and returns the bytes and the decode's error.
func roundTrip[T any](run func(*Codec, *T), v, into *T) ([]byte, error) {
	var c Codec
	c.Encode(nil)
	run(&c, v)
	body := c.Encoded()
	c.Decode(body)
	run(&c, into)
	return body, c.Done()
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so NaN
// equals NaN and -0 does not equal 0.
func sameBits(a, b any) bool {
	var bits func(a, b reflect.Value) bool
	bits = func(a, b reflect.Value) bool {
		switch a.Kind() {
		case reflect.Float64:
			return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				if !bits(a.Field(i), b.Field(i)) {
					return false
				}
			}
			return true
		case reflect.Slice:
			if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
				return false
			}
			for i := 0; i < a.Len(); i++ {
				if !bits(a.Index(i), b.Index(i)) {
					return false
				}
			}
			return true
		case reflect.Map:
			if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
				return false
			}
			for _, k := range a.MapKeys() {
				if bv := b.MapIndex(k); !bv.IsValid() || !bits(a.MapIndex(k), bv) {
					return false
				}
			}
			return true
		}
		return a.Interface() == b.Interface()
	}
	return bits(reflect.ValueOf(a), reflect.ValueOf(b))
}

// check round-trips every value of vs through run, decoding into a zero T
// and into a T that held the previous value: the result is the value
// (with want mapping what the wire cannot tell apart, such as nil and
// empty), and re-encodes to the same bytes.
func check[T any](t *testing.T, name string, run func(*Codec, *T), want func(T) T, vs ...T) {
	t.Helper()
	var used T
	for _, v := range vs {
		for how, into := range map[string]*T{"fresh": new(T), "used": &used} {
			body, err := roundTrip(run, &v, into)
			if err != nil {
				t.Errorf("%s %#v into a %s value: %v", name, v, how, err)
				continue
			}
			if !sameBits(*into, want(v)) {
				t.Errorf("%s %#v into a %s value: got %#v", name, v, how, *into)
			}
			if again, _ := roundTrip(run, into, new(T)); !bytes.Equal(again, body) {
				t.Errorf("%s %#v into a %s value re-encodes to %x, was %x", name, v, how, again, body)
			}
		}
	}
}

func same[T any](v T) T { return v }

// nilIfEmpty is what a list decodes to: the wire does not tell nil from
// empty.
func nilIfEmpty[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v
}

// TestRoundTrip: each primitive gives back exactly what it was given —
// every float bit pattern, both ends of every integer range — except that
// a nil list decodes as a nil one and an empty one as nil too.
func TestRoundTrip(t *testing.T) {
	odd := []float64{math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -math.MaxFloat64, 0.1 + 0.2}
	check(t, "Uvarint", (*Codec).Uvarint, same, 0, 1, 127, 128, 1<<14, 1<<63, math.MaxUint64)
	check(t, "Int64", (*Codec).Int64, same, 0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64)
	check(t, "Int", (*Codec).Int, same, 0, -1, math.MaxInt, math.MinInt)
	check(t, "Byte", (*Codec).Byte, same, 0, 'T', 0xff)
	check(t, "Bool", (*Codec).Bool, same, true, false)
	check(t, "Float", (*Codec).Float, same, odd...)
	check(t, "Rect", (*Codec).Rect, same, geom.Rect{}, geom.Rect{MinX: odd[0], MinY: odd[2], MaxX: odd[3], MaxY: odd[4]})
	check(t, "String", (*Codec).String, same, "", "a", "\xff\x00", strings.Repeat("s", 300))
	check(t, "Bytes", (*Codec).Bytes, nilIfEmpty, nil, []byte{}, []byte{0}, bytes.Repeat([]byte{1, 0xff}, 5000))
	check(t, "Floats", (*Codec).Floats, nilIfEmpty, nil, []float64{}, odd)
	check(t, "Int64s", (*Codec).Int64s, nilIfEmpty, nil, []int64{}, []int64{0, -1, math.MaxInt64, math.MinInt64})
	check(t, "Strings", (*Codec).Strings, nilIfEmpty, nil, []string{}, []string{""}, []string{"a", "", "\xff", strings.Repeat("r", 300)})
	ints := func(c *Codec, s *[]int) { Slice(c, s, 1, (*Codec).Int) }
	check(t, "Slice", ints, nilIfEmpty, nil, []int{}, []int{0, -3, 1 << 40})
	counts := func(c *Codec, m *map[string]int64) { Map(c, m, 2, (*Codec).Int64) }
	check(t, "Map", counts, func(v map[string]int64) map[string]int64 {
		if len(v) == 0 {
			return nil
		}
		return v
	}, nil, map[string]int64{}, map[string]int64{"": 0, "a": -1, "b": math.MaxInt64, "\xff": 1})
	series := func(c *Codec, m *map[string][]float64) { Map(c, m, 2, (*Codec).Floats) }
	check(t, "Map of lists", series, func(v map[string][]float64) map[string][]float64 {
		out := map[string][]float64{}
		for k, vs := range v {
			out[k] = nilIfEmpty(vs)
		}
		return out
	}, map[string][]float64{"h": odd, "e": nil, "f": {}})
	column := func(c *Codec, pts *[]geom.Point) {
		Len(c, pts, 16)
		c.Points(*pts)
	}
	check(t, "Points", column, nilIfEmpty, nil, []geom.Point{{X: odd[0], Y: odd[1]}, {X: odd[4], Y: odd[6]}})
}

// TestLayout pins the bytes: a decoder elsewhere (call frames, block
// frames on disk) is only as good as the layout it was written against.
func TestLayout(t *testing.T) {
	enc := func(run func(*Codec)) []byte {
		var c Codec
		run(&c)
		return c.Encoded()
	}
	for name, tc := range map[string]struct{ got, want []byte }{
		"zig-zag":      {enc(func(c *Codec) { v := int64(-3); c.Int64(&v) }), binary.AppendVarint(nil, -3)},
		"float bits":   {enc(func(c *Codec) { v := math.Copysign(0, -1); c.Float(&v) }), binary.LittleEndian.AppendUint64(nil, 1<<63)},
		"string":       {enc(func(c *Codec) { s := "ab"; c.String(&s) }), []byte{2, 'a', 'b'}},
		"map in order": {enc(func(c *Codec) { m := map[string]bool{"b": true, "a": false}; Map(c, &m, 2, (*Codec).Bool) }), []byte{2, 1, 'a', 0, 1, 'b', 1}},
		"appends":      {enc(func(c *Codec) { c.Encode([]byte("head")); v := true; c.Bool(&v) }), []byte("head\x01")},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Errorf("%s: %x, want %x", name, tc.got, tc.want)
		}
	}
}

// TestCapacityReuse: a []byte, []float64 or []int64 decodes into the
// destination's own capacity — a pooled reply allocates only to grow — and
// shares nothing with the input.
func TestCapacityReuse(t *testing.T) {
	var c Codec
	keys, frag, counts := []float64{1, 2, 3}, []byte("abc"), []int64{4, -5}
	c.Encode(nil)
	c.Floats(&keys)
	c.Int64s(&counts)
	c.Bytes(&frag)
	body := c.Encoded()
	dstKeys, dstFrag, dstCounts := make([]float64, 0, 8), make([]byte, 0, 8), make([]int64, 0, 8)
	c.Decode(body)
	c.Floats(&dstKeys)
	c.Int64s(&dstCounts)
	c.Bytes(&dstFrag)
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	if cap(dstKeys) != 8 || cap(dstFrag) != 8 || cap(dstCounts) != 8 || !reflect.DeepEqual(dstKeys, keys) || string(dstFrag) != "abc" || !reflect.DeepEqual(dstCounts, counts) {
		t.Fatalf("decoded %v (cap %d), %q (cap %d), %v (cap %d)", dstKeys, cap(dstKeys), dstFrag, cap(dstFrag), dstCounts, cap(dstCounts))
	}
	body[len(body)-1] = 'X'
	if string(dstFrag) != "abc" {
		t.Fatal("the decoded bytes alias the input")
	}
}

// TestSpansOneAllocation: a string list's text costs one allocation
// however many strings it holds.
func TestSpansOneAllocation(t *testing.T) {
	list := make([]string, 100)
	for i := range list {
		list[i] = strings.Repeat("x", i)
	}
	var c Codec
	c.Encode(nil)
	c.Strings(&list)
	body := c.Encoded()
	out := make([]string, len(list))
	allocs := testing.AllocsPerRun(20, func() {
		c.Decode(body[1:]) // past the count
		c.Spans(len(out), func(i int) *string { return &out[i] })
	})
	if err := c.Done(); err != nil || allocs != 1 || !reflect.DeepEqual(out, list) {
		t.Fatalf("%v allocations, %v; want 1 and the list back", allocs, err)
	}
}

// allocBytes is what f allocates per run, on average over runs.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestRejectsMalformed: bytes that are not exactly one encoding of a
// field fail the decode, without panicking and without sizing an
// allocation by a count they could not back with bytes. Counts of 1<<20
// are ones a decoder could allocate for without failing — what the
// allocation bound catches.
func TestRejectsMalformed(t *testing.T) {
	str := func(s string) []byte { return append(uvarints(uint64(len(s))), s...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f64 := func(vs ...float64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	var (
		u     uint64
		i     int
		b     bool
		s     string
		raw   []byte
		fs    []float64
		ss    []string
		m     map[string]int64
		ls    []int
		pts   []geom.Point
		f     float64
		by    byte
		empty = func(*Codec) {}
	)
	column := func(c *Codec) { Len(c, &pts, 16); c.Points(pts) }
	for name, tc := range map[string]struct {
		run  func(*Codec)
		body []byte
	}{
		"varint cut short":              {func(c *Codec) { c.Uvarint(&u) }, []byte{0x80}},
		"varint not minimal":            {func(c *Codec) { c.Uvarint(&u) }, []byte{0x81, 0x00}},
		"varint overflows":              {func(c *Codec) { c.Uvarint(&u) }, append(bytes.Repeat([]byte{0xff}, 10), 0x01)},
		"int not minimal":               {func(c *Codec) { c.Int(&i) }, []byte{0x80, 0x00}},
		"bool beyond 1":                 {func(c *Codec) { c.Bool(&b) }, []byte{2}},
		"byte missing":                  {func(c *Codec) { c.Byte(&by) }, nil},
		"float cut short":               {func(c *Codec) { c.Float(&f) }, f64(1)[:7]},
		"string count beyond":           {func(c *Codec) { c.String(&s) }, cat(uvarints(1<<40), []byte("abc"))},
		"bytes count beyond":            {func(c *Codec) { c.Bytes(&raw) }, cat(uvarints(1<<40), []byte("abc"))},
		"floats count beyond":           {func(c *Codec) { c.Floats(&fs) }, cat(uvarints(3), f64(1, 2))},
		"floats count overflows":        {func(c *Codec) { c.Floats(&fs) }, cat(uvarints(1<<61), f64(1, 2))},
		"half a float":                  {func(c *Codec) { c.Floats(&fs) }, cat(uvarints(1), f64(1)[:4])},
		"strings count beyond":          {func(c *Codec) { c.Strings(&ss) }, cat(uvarints(1<<20), str("a"))},
		"string in a list cut short":    {func(c *Codec) { c.Strings(&ss) }, cat(uvarints(2), str("a"), uvarints(5), []byte("ab"))},
		"slice count beyond":            {func(c *Codec) { Slice(c, &ls, 1, (*Codec).Int) }, cat(uvarints(1<<20), uvarints(1))},
		"map count beyond":              {func(c *Codec) { Map(c, &m, 2, (*Codec).Int64) }, cat(uvarints(1<<20), str("a"), uvarints(1))},
		"map keys out of order":         {func(c *Codec) { Map(c, &m, 2, (*Codec).Int64) }, cat(uvarints(2), str("b"), uvarints(1), str("a"), uvarints(2))},
		"map key repeated":              {func(c *Codec) { Map(c, &m, 2, (*Codec).Int64) }, cat(uvarints(2), str("a"), uvarints(1), str("a"), uvarints(2))},
		"column count beyond":           {column, cat(uvarints(1<<20), f64(1, 2))},
		"column count overflows":        {column, cat(uvarints(1<<60+1), f64(1, 2))},
		"half a point":                  {column, cat(uvarints(1), f64(1))},
		"trailing byte":                 {func(c *Codec) { c.Uvarint(&u) }, []byte{1, 0}},
		"trailing byte after a list":    {func(c *Codec) { c.Strings(&ss) }, cat(uvarints(1), str("a"), []byte{0})},
		"body for a message of nothing": {empty, []byte{0}},
	} {
		var err error
		if n := allocBytes(20, func() {
			var c Codec
			c.Decode(tc.body)
			tc.run(&c)
			err = c.Done()
		}); n > 4<<10 {
			t.Errorf("%s: a rejected body allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted %x", name, tc.body)
		}
	}
}

// TestFailZeroesLaterFields: after the first malformed field, every later
// one reads as its zero value, whatever the destination held, and the
// first error is the one Done reports.
func TestFailZeroesLaterFields(t *testing.T) {
	var c Codec
	c.Decode([]byte{0x81, 0x00, 5, 'a'})
	u, s, fs := uint64(9), "held", []float64{1}
	c.Uvarint(&u)
	first := c.Err()
	c.String(&s)
	c.Floats(&fs)
	if u != 0 || s != "" || len(fs) != 0 || first == nil || c.Done() != first {
		t.Fatalf("after a bad varint: %d, %q, %v; err %v then %v", u, s, fs, first, c.Done())
	}
}

// TestReadUvarint: a frame's length prefix follows the same rule as every
// other varint.
func TestReadUvarint(t *testing.T) {
	for _, v := range []uint64{0, 127, 128, 1 << 30, math.MaxUint64} {
		if got, err := ReadUvarint(bytes.NewReader(binary.AppendUvarint(nil, v))); err != nil || got != v {
			t.Errorf("ReadUvarint(%d) = %d, %v", v, got, err)
		}
	}
	for name, tc := range map[string]struct {
		in   []byte
		want error // nil: any error
	}{
		"empty":       {nil, io.EOF},
		"cut short":   {[]byte{0x80}, io.ErrUnexpectedEOF},
		"not minimal": {[]byte{0x85, 0x00}, nil},
		"overflows":   {append(bytes.Repeat([]byte{0xff}, 9), 0x02), nil},
		"too long":    {bytes.Repeat([]byte{0x80}, 11), nil},
	} {
		_, err := ReadUvarint(bytes.NewReader(tc.in))
		if err == nil || tc.want != nil && err != tc.want {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}
