package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
)

// The response bodies as encoding/json would render them: the mirror
// structs every hand-rolled encoder is pinned to, byte for byte.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type rangeResponse struct {
	File   string      `json:"file"`
	Rect   string      `json:"rect"`
	Count  int         `json:"count"`
	Points []pointJSON `json:"points"`
}

type knnResponse struct {
	File      string         `json:"file"`
	Point     string         `json:"point"`
	K         int            `json:"k"`
	Count     int            `json:"count"`
	Neighbors []neighborJSON `json:"neighbors"`
}

// TestAppendJSONFloatMatchesEncodingJSON: the hand-rolled float encoder
// must agree with encoding/json bit for bit across magnitude regimes —
// the cache stores bodies, so any divergence would surface as a phantom
// miss or a broken oracle comparison. The same values, as a point, must
// measure (geomio.PointLen) what their text spells.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.125, 123.456, -9999.875,
		1e-6, 9.999e-7, 1e-7, -1e-7, 1e20, 1e21, -2.5e21, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	// Every power of two and of ten, with their one-ulp neighbours.
	for e := -1074; e <= 1023; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	for k := -323; k <= 308; k++ {
		vals = append(vals, math.Pow(10, float64(k)))
	}
	for _, f := range slices.Clone(vals) {
		vals = append(vals, math.Nextafter(f, 0), -f)
		if f != math.MaxFloat64 { // whose next is +Inf
			vals = append(vals, math.Nextafter(f, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		vals = append(vals, f)
	}
	// Lattice-quantized values like the generators produce.
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Round(rng.Float64()*8_000_000)/8)
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := geomio.AppendJSONFloat(nil, f)
		if err != nil {
			t.Fatalf("%v (bits %x): %v", f, math.Float64bits(f), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("float %v (bits %x): encoder %q, encoding/json %q",
				f, math.Float64bits(f), got, want)
		}
		p := geom.Point{X: f, Y: -f}
		if n, text := geomio.PointLen(p), strconv.FormatFloat(f, 'g', -1, 64)+","+strconv.FormatFloat(-f, 'g', -1, 64); n != len(text) {
			t.Fatalf("PointLen(%v) = %d, its text %q is %d bytes", p, n, text, len(text))
		}
	}
	if _, err := geomio.AppendJSONFloat(nil, math.Inf(1)); err == nil {
		t.Error("encoding +Inf should error like encoding/json")
	}
	if _, err := geomio.AppendJSONFloat(nil, math.NaN()); err == nil {
		t.Error("encoding NaN should error like encoding/json")
	}
}

// TestEncodeBodiesMatchEncodingJSON: whole range and kNN bodies from the
// fast encoders must be byte-identical to marshalBody over the mirror
// structs, including the empty-result and escaping-fallback cases.
func TestEncodeBodiesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPts := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Pt(math.Round(rng.Float64()*8000)/8, rng.NormFloat64()*1e5)
		}
		return out
	}
	files := []string{"pts", "p-1_2.bin", "", "a<b&c>d", `quo"te\slash`, "uni\u00e9", "ctl\n"}
	for _, file := range files {
		for _, n := range []int{0, 1, 7, 300} {
			pts := randPts(n)
			rect := geomio.EncodeRect(geom.NewRect(0, 0, 1000, 1000))
			want := rangeResponse{File: file, Rect: rect, Count: len(pts), Points: make([]pointJSON, len(pts))}
			for i, p := range pts {
				want.Points[i] = pointJSON{X: p.X, Y: p.Y}
			}
			wantBody, err := marshalBody(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeRangeBody(file, rect, pts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBody) {
				t.Fatalf("range body file=%q n=%d:\n got %q\nwant %q", file, n, got, wantBody)
			}

			nbs := make([]neighborJSON, len(pts))
			for i, p := range pts {
				nbs[i] = neighborJSON{X: p.X, Y: p.Y, Dist: math.Hypot(p.X, p.Y)}
			}
			wantK, err := marshalBody(knnResponse{File: file, Point: "1,2", K: n + 1, Count: len(nbs), Neighbors: nbs})
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := encodeKNNBody(file, "1,2", n+1, nbs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotK, wantK) {
				t.Fatalf("knn body file=%q n=%d:\n got %q\nwant %q", file, n, gotK, wantK)
			}
		}
	}
}

// pinHeap pins pts as one memory-resident partition: a one-block heap file
// is a single split, and PinSplit does not care where a split came from.
func pinHeap(t *testing.T, sys *core.System, name string, pts []geom.Point) *ops.LocalPartition {
	t.Helper()
	if err := sys.LoadPointsHeap(name, pts); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Splits()) != 1 {
		t.Fatalf("%s: %d splits, want one block", name, len(f.Splits()))
	}
	part, err := ops.PinSplit(f.Splits()[0])
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// checkRangeBodies renders one range answer over pinned partitions every
// way the server can — the executor's gather over per-partition streams,
// over a lone keyless stream (one holder, the master's call under the
// local engine) and over two keyed ones, the sort-then-format slow path —
// and requires each to equal encoding/json over the mirror struct.
func checkRangeBodies(t *testing.T, file string, parts []*ops.LocalPartition, q geom.Rect) {
	t.Helper()
	canon := geomio.EncodeRect(q)
	var (
		streams []shardFrag
		pts     []geom.Point
	)
	for _, part := range parts {
		ids := part.Tree.Search(q, nil)
		slices.Sort(ids)
		for _, id := range ids {
			pts = append(pts, part.Pts[id])
		}
		// Every partition ships a stream, matches or not: empty streams
		// are part of a real gather.
		st, err := ops.PartitionRangePoints(part, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{int64(len(part.Pts)), int64(len(ids))}; !slices.Equal(st.Counts, want) || len(st.Keys) != 2*len(ids) {
			t.Fatalf("rect %s: stream of %d keys counted %v, want %d keys counted %v", canon, len(st.Keys), st.Counts, 2*len(ids), want)
		}
		streams = append(streams, shardFrag{stream: &st, counts: st.Counts, matches: len(st.Keys) / 2})
	}
	out := map[string][]byte{"streams": encodeRangeBodyStreams(file, canon, streams)}
	// What workers ship: a call's partitions merged into one stream — a
	// lone one keyless and copied whole, two merged again over their keys.
	workerStream := func(parts []*ops.LocalPartition, keys bool) shardFrag {
		st := new(ops.RangeFragment)
		if err := ops.RangeStream(st, parts, q, keys); err != nil {
			t.Fatal(err)
		}
		f := shardFrag{stream: st, counts: st.Counts}
		if err := f.check(len(parts), keys); err != nil {
			t.Fatal(err)
		}
		return f
	}
	half := len(parts) / 2
	out["lone"] = encodeRangeBodyStreams(file, canon, []shardFrag{workerStream(parts, false)})
	out["halves"] = encodeRangeBodyStreams(file, canon, []shardFrag{workerStream(parts[:half], true), workerStream(parts[half:], true)})
	var err error
	slices.SortFunc(pts, geom.Point.Compare)
	if out["sorted"], err = encodeRangeBody(file, canon, pts); err != nil {
		t.Fatal(err)
	}
	resp := rangeResponse{File: file, Rect: canon, Count: len(pts), Points: make([]pointJSON, len(pts))}
	for i, p := range pts {
		resp.Points[i] = pointJSON{X: p.X, Y: p.Y}
	}
	if out["marshal"], err = marshalBody(resp); err != nil {
		t.Fatal(err)
	}
	for name, body := range out {
		if !bytes.Equal(body, out["marshal"]) {
			t.Fatalf("file %q rect %s: %s body diverges from encoding/json\n got %.300q\nwant %.300q", file, canon, name, body, out["marshal"])
		}
	}
}

// fillRange streams parts over q and drops the answer: the points it
// matches have their objects written, as a served query would leave them.
func fillRange(t *testing.T, parts []*ops.LocalPartition, q geom.Rect) {
	t.Helper()
	if err := ops.RangeStream(new(ops.RangeFragment), parts, q, false); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRangeBodyMatchesMergesIdentically pins both merge fast paths —
// a holder's (RangeStream, matched IDs copied from the partitions' object
// slots) and the gather's (streams from every holder) — to the
// sort-then-encode slow path and to encoding/json over real pinned
// partitions, in the three states a partition's slots can be in: before
// any query wrote one (freshly pinned for each query), after another
// window's query wrote some, and after a whole-plane query wrote them all.
// Merging the partitions' sorted streams must produce the same bytes as
// materializing, globally sorting and float-formatting the points.
func TestEncodeRangeBodyMatchesMergesIdentically(t *testing.T) {
	sys := newServeSystem(t)
	f, err := sys.Open("pts1")
	if err != nil {
		t.Fatal(err)
	}
	pin := func() []*ops.LocalPartition {
		parts := make([]*ops.LocalPartition, 0, len(f.Splits()))
		for _, sp := range f.Splits() {
			part, err := ops.PinSplit(sp)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSortedFunc(part.Pts, func(a, b geom.Point) int {
				switch {
				case a.X < b.X:
					return -1
				case a.X > b.X:
					return 1
				case a.Y < b.Y:
					return -1
				case a.Y > b.Y:
					return 1
				}
				return 0
			}) {
				t.Fatalf("partition %s: pinned points not canonically sorted", part.Key)
			}
			parts = append(parts, part)
		}
		return parts
	}
	rng := rand.New(rand.NewSource(5))
	window := func() geom.Rect {
		x, y := rng.Float64()*9000, rng.Float64()*9000
		return geom.NewRect(x, y, x+rng.Float64()*4000, y+rng.Float64()*4000)
	}
	rects := []geom.Rect{
		geom.NewRect(0, 0, 10_000, 10_000), // everything: full merge
		geom.NewRect(0, 0, 0, 0),           // nothing
	}
	for i := 0; i < 30; i++ {
		rects = append(rects, window())
	}
	full := pin()
	fillRange(t, full, rects[0])
	for _, q := range rects {
		checkRangeBodies(t, "pts1", pin(), q)
		partial := pin()
		fillRange(t, partial, window())
		checkRangeBodies(t, "pts1", partial, q)
		checkRangeBodies(t, "pts1", full, q)
	}
	// A file name that needs JSON escaping takes encoding/json's escaper
	// in every encoder.
	checkRangeBodies(t, "a<b&\"c\"\u00e9\n", full, rects[0])
}

// TestEncodeRangeBodyStreamsRandomized drives the same four-way identity
// over randomized partitions built to hit the merge's edges: coordinates
// from a small lattice, so streams tie across partitions on X and on
// (X, Y); negative and exponent-form values (1e-7, 1e21); partitions with
// no match (empty streams); a single partition (the whole body is one
// copy); and partitions whose slots no query has written, some of which
// another window's query has, or all.
func TestEncodeRangeBodyStreamsRandomized(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1 << 20, Workers: 2, Seed: 1})
	rng := rand.New(rand.NewSource(17))
	lattice := []float64{-2.5e21, -1234.5, -1e-7, 0, 1e-7, 0.125, 3, 3.5, 1e6, 1e21}
	for trial := 0; trial < 60; trial++ {
		parts := make([]*ops.LocalPartition, 1+trial%5)
		for i := range parts {
			pts := make([]geom.Point, 1+rng.Intn(40))
			for j := range pts {
				pts[j] = geom.Pt(lattice[rng.Intn(len(lattice))], lattice[rng.Intn(len(lattice))])
			}
			parts[i] = pinHeap(t, sys, fmt.Sprintf("t%d.p%d", trial, i), pts)
		}
		corner := func() float64 { return lattice[rng.Intn(len(lattice))] }
		switch trial % 3 { // 0: no slot written before the first query
		case 1: // some
			fillRange(t, parts, geom.NewRect(corner(), corner(), corner(), corner()))
		case 2: // all
			fillRange(t, parts, geom.NewRect(-1e22, -1e22, 1e22, 1e22))
		}
		for _, q := range []geom.Rect{
			geom.NewRect(corner(), corner(), corner(), corner()),
			geom.NewRect(corner(), -1e22, corner(), 1e22),
			geom.NewRect(-1e22, -1e22, 1e22, 1e22),
			geom.NewRect(2, 2, 2.5, 2.5), // between lattice values: every stream empty
		} {
			checkRangeBodies(t, "pts", parts, q)
		}
	}
}

// TestRangeStreamLongObjects: a point whose object is longer than a slot
// holds — two negative 17-digit coordinates, or two exponent forms with 17
// digits — is formatted on every use, cold and warm, beside points that
// fit, one of them exactly (47 bytes, one short of its slot), and every body
// still equals encoding/json's.
func TestRangeStreamLongObjects(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1 << 20, Workers: 2, Seed: 1})
	pos17 := math.Nextafter(1234.5, math.Inf(1))   // 1234.5000000000002
	neg17 := math.Nextafter(-1234.5, math.Inf(-1)) // -1234.5000000000002
	exp17 := math.Nextafter(-1e-300, math.Inf(-1)) // -1.0000000000000001e-300
	big17 := math.Nextafter(2.5e21, math.Inf(1))   // 2.5000000000000004e+21
	pts := []geom.Point{
		geom.Pt(pos17, pos17), geom.Pt(neg17, pos17), geom.Pt(neg17, neg17), geom.Pt(exp17, exp17), geom.Pt(big17, neg17),
		geom.Pt(neg17, 3), geom.Pt(0, 0), geom.Pt(3, exp17), geom.Pt(1, 1),
	}
	for i, want := range []int{47, 48, 49, 59, 52} {
		o, err := ops.AppendPointJSON(nil, pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(o) != want {
			t.Fatalf("%v: a %d-byte object %s, want %d bytes", pts[i], len(o), o, want)
		}
	}
	half := len(pts) / 2
	parts := []*ops.LocalPartition{
		pinHeap(t, sys, "long.a", pts[:half]),
		pinHeap(t, sys, "long.b", pts[half:]),
	}
	all := geom.NewRect(-1e22, -1e22, 1e22, 1e22)
	for _, q := range []geom.Rect{geom.NewRect(-2000, -2000, 0, 0), all, geom.NewRect(-2000, -2000, 0, 0), all} {
		checkRangeBodies(t, "long", parts, q)
	}
}

// TestRangeStreamUnencodable: a partition holding a coordinate JSON cannot
// carry fails exactly the queries that match that point, the way
// encoding/json fails the slow path — before its other points' objects are
// written, after, and every time — and not matching it costs nothing.
func TestRangeStreamUnencodable(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1 << 20, Workers: 2, Seed: 1})
	part := pinHeap(t, sys, "inf", []geom.Point{geom.Pt(1, 1), geom.Pt(2, math.Inf(1))})
	all, finite := geom.NewRect(0, 0, 3, math.Inf(1)), geom.NewRect(0, 0, 3, 3)
	if _, err := marshalBody(rangeResponse{Points: []pointJSON{{X: 2, Y: math.Inf(1)}}}); err == nil {
		t.Fatal("encoding/json carried +Inf")
	}
	if _, err := ops.PartitionRangePoints(part, all); err == nil {
		t.Error("streaming a +Inf match succeeded before any object was written")
	}
	checkRangeBodies(t, "inf", []*ops.LocalPartition{part}, finite)
	if _, err := ops.PartitionRangePoints(part, all); err == nil {
		t.Error("streaming a +Inf match succeeded the second time")
	}
	checkRangeBodies(t, "inf", []*ops.LocalPartition{part}, finite)
	fresh := pinHeap(t, sys, "inf2", []geom.Point{geom.Pt(1, 1), geom.Pt(2, math.Inf(1))})
	checkRangeBodies(t, "inf", []*ops.LocalPartition{fresh}, finite)
	if _, err := ops.PartitionRangePoints(fresh, all); err == nil {
		t.Error("streaming a +Inf match succeeded after the finite point's object was written")
	}
}
